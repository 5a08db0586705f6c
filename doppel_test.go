package doppel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppel/internal/core"
)

func TestOpenExecClose(t *testing.T) {
	db := Open(Options{Workers: 2})
	defer db.Close()
	err := db.Exec(func(tx Tx) error {
		if err := tx.PutInt("a", 1); err != nil {
			return err
		}
		return tx.Add("a", 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Exec(func(tx Tx) error {
		n, err := tx.GetInt("a")
		if err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("got %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecUserError(t *testing.T) {
	db := Open(Options{Workers: 1})
	defer db.Close()
	boom := errors.New("boom")
	if err := db.Exec(func(tx Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecAfterClose(t *testing.T) {
	db := Open(Options{Workers: 1})
	db.Close()
	if err := db.Exec(func(tx Tx) error { return nil }); err == nil {
		t.Fatal("expected error after close")
	}
	db.Close() // idempotent
}

// TestExecRacingClose: submitters looping ExecAsync and ExecContext
// while Close runs must each get either their transaction's outcome or
// ErrClosed, never a send on a closed queue, and every ExecAsync
// callback must fire exactly once.
func TestExecRacingClose(t *testing.T) {
	noop := func(tx Tx) error { return nil }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for round := 0; round < 20; round++ {
		db := Open(Options{Workers: 2})
		var submitted, completed atomic.Int64
		cb := func(err error) {
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("ExecAsync completed with %v", err)
			}
			completed.Add(1)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if g%2 == 0 {
						submitted.Add(1)
						db.ExecAsync(noop, cb)
						continue
					}
					if err := db.ExecContext(ctx, noop); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("ExecContext returned %v", err)
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		db.Close()
		stop.Store(true)
		wg.Wait()
		if s, c := submitted.Load(), completed.Load(); s != c {
			t.Fatalf("round %d: %d ExecAsync calls, %d callbacks", round, s, c)
		}
	}
}

// TestStashedExecReturnsReplayError: a transaction stashed in a split
// phase reports the outcome of its replay. A body that reads the split
// key and then fails must return its own error, not nil.
func TestStashedExecReturnsReplayError(t *testing.T) {
	db := Open(Options{Workers: 2, PhaseLength: 200 * time.Millisecond})
	defer db.Close()
	db.SplitHint("hot", OpAdd)
	boom := errors.New("boom")
	readThenFail := func(tx Tx) error {
		if _, err := tx.GetInt("hot"); err != nil {
			return err
		}
		return boom
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Stats().Stashed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read of the hinted key ever stashed")
		}
		if err := db.Exec(func(tx Tx) error { return tx.Add("hot", 1) }); err != nil {
			t.Fatal(err)
		}
		if err := db.Exec(readThenFail); !errors.Is(err, boom) {
			t.Fatalf("Exec returned %v, want the body's error (stashed %d)", err, db.Stats().Stashed)
		}
	}
}

func TestConcurrentCounterWithHint(t *testing.T) {
	db := Open(Options{Workers: 4, PhaseLength: 2 * time.Millisecond})
	defer db.Close()
	db.SplitHint("ctr", OpAdd)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := db.Exec(func(tx Tx) error { return tx.Add("ctr", 1) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A read of split data stashes and replays in the next joined phase;
	// Exec returns after the replay, so the read saw the reconciled value.
	var final int64
	err := db.Exec(func(tx Tx) error {
		n, err := tx.GetInt("ctr")
		final = n
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != goroutines*perG {
		t.Fatalf("counter %d want %d", final, goroutines*perG)
	}
	st := db.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits recorded")
	}
	if st.Phase != "joined" && st.Phase != "split" {
		t.Fatalf("phase %q", st.Phase)
	}
}

func TestAutoSplitUnderRealContention(t *testing.T) {
	opts := Options{Workers: 4, PhaseLength: 2 * time.Millisecond}
	opts.Engine.SplitMinConflicts = 2
	opts.Engine.SplitFraction = 0.0001
	db := Open(opts)
	defer db.Close()
	var wg sync.WaitGroup
	var accepted atomic.Int64
	stop := time.Now().Add(300 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if db.Exec(func(tx Tx) error { return tx.Add("hot", 1) }) == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// Whether the classifier split depends on observed interleaving on
	// this machine; the invariant that must always hold is conservation:
	// every accepted Add is reflected exactly once.
	var total int64
	if err := db.Exec(func(tx Tx) error {
		n, err := tx.GetInt("hot")
		total = n
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if total != accepted.Load() {
		t.Fatalf("counter %d, accepted adds %d", total, accepted.Load())
	}
}

func TestAllOpsThroughPublicAPI(t *testing.T) {
	db := Open(Options{Workers: 2})
	defer db.Close()
	err := db.Exec(func(tx Tx) error {
		if err := tx.Max("mx", 9); err != nil {
			return err
		}
		if err := tx.Min("mn", -3); err != nil {
			return err
		}
		if err := tx.Mult("ml", 6); err != nil {
			return err
		}
		if err := tx.OPut("op", Order{A: 5}, []byte("win")); err != nil {
			return err
		}
		if err := tx.TopKInsert("tk", 8, []byte("e"), 4); err != nil {
			return err
		}
		return tx.PutBytes("by", []byte("raw"))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Exec(func(tx Tx) error {
		if n, _ := tx.GetInt("mx"); n != 9 {
			return fmt.Errorf("max %d", n)
		}
		if n, _ := tx.GetInt("mn"); n != -3 {
			return fmt.Errorf("min %d", n)
		}
		if n, _ := tx.GetInt("ml"); n != 6 {
			return fmt.Errorf("mult %d", n)
		}
		tup, ok, err := tx.GetTuple("op")
		if err != nil || !ok || string(tup.Data) != "win" {
			return fmt.Errorf("oput %v %v %v", tup, ok, err)
		}
		es, err := tx.GetTopK("tk")
		if err != nil || len(es) != 1 || es[0].Order != 8 {
			return fmt.Errorf("topk %v %v", es, err)
		}
		b, err := tx.GetBytes("by")
		if err != nil || string(b) != "raw" {
			return fmt.Errorf("bytes %q %v", b, err)
		}
		v, err := tx.Get("by")
		if err != nil || v == nil {
			return fmt.Errorf("get %v %v", v, err)
		}
		if _, err := tx.GetForUpdate("mx"); err != nil {
			return err
		}
		if _, err := tx.GetIntForUpdate("mx"); err != nil {
			return err
		}
		if tx.WorkerID() < 0 {
			return errors.New("worker id")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndHints(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	db.SplitHint("h", OpMax)
	db.ClearSplitHint("h")
	if db.Internal() == nil {
		t.Fatal("internal engine nil")
	}
	_ = db.Exec(func(tx Tx) error { return tx.Add("x", 1) })
	st := db.Stats()
	if st.Committed == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStatsDuringSplitLoad reads Stats in a loop while the workers
// commit slice writes and stash reads of a hinted key, so every phase
// change, stash and drain races the reader. Under -race it checks that
// the workers publish their counters and latency histograms race-free;
// without it, that the totals add up.
func TestStatsDuringSplitLoad(t *testing.T) {
	db := Open(Options{Workers: 2, PhaseLength: 2 * time.Millisecond})
	defer db.Close()
	db.SplitHint("hot", OpAdd)
	stop := make(chan struct{})
	var adds, reads atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%8 == 7 {
					if err := db.Exec(func(tx Tx) error { _, err := tx.GetInt("hot"); return err }); err != nil {
						t.Error(err)
						return
					}
					reads.Add(1)
					continue
				}
				if err := db.Exec(func(tx Tx) error { return tx.Add("hot", 1) }); err != nil {
					t.Error(err)
					return
				}
				adds.Add(1)
			}
		}()
	}
	var last Stats
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		st := db.Stats()
		if st.Committed < last.Committed || st.Stashed < last.Stashed || st.PhaseChanges < last.PhaseChanges {
			t.Fatalf("stats went backwards: %+v after %+v", st, last)
		}
		last = st
		_ = db.Internal().WorkerStats(0).ReadLatency.Quantile(0.9)
	}
	close(stop)
	wg.Wait()
	st := db.Stats()
	if want := adds.Load() + reads.Load(); st.Committed != want {
		t.Fatalf("Committed = %d, want %d acknowledged transactions", st.Committed, want)
	}
	if st.Stashed == 0 || st.PhaseChanges == 0 {
		t.Fatalf("the hinted key never split under load: %+v", st)
	}
}

// TestCloseWithStashedRead: Close must not hang while a stashed
// transaction is pending. The stash replays only in a joined phase, and
// the transition to it needs every worker's acknowledgement, so workers
// whose queues have closed must keep acknowledging until every worker's
// held-back requests are finished.
func TestCloseWithStashedRead(t *testing.T) {
	db := Open(Options{Workers: 2, PhaseLength: 200 * time.Millisecond})
	db.SplitHint("hot", OpAdd)
	deadline := time.Now().Add(10 * time.Second)
	for db.Internal().Phase() != core.PhaseSplit {
		if time.Now().After(deadline) {
			t.Fatal("the hinted key never split")
		}
		if err := db.Exec(func(tx Tx) error { return tx.Add("hot", 1) }); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan error, 1)
	db.ExecAsync(func(tx Tx) error {
		_, err := tx.GetInt("hot")
		return err
	}, func(err error) { got <- err })

	closed := make(chan struct{})
	go func() {
		db.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return within 3s with a stashed read pending")
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("stashed read completed with %v, want nil", err)
		}
	default:
		t.Fatal("Close returned before the stashed read's callback fired")
	}
	if st := db.Stats(); st.Stashed == 0 {
		t.Fatal("the read was never stashed; the test did not exercise the stash path")
	}
}
