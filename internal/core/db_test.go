package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/rng"
	"doppel/internal/store"
)

// manualDB opens a DB with the coordinator disabled so tests control
// phases deterministically.
func manualDB(workers int) *DB {
	cfg := DefaultConfig(workers)
	cfg.PhaseLength = 0
	return Open(store.New(), cfg)
}

// run executes fn on worker w, stepping through Paused outcomes.
func run(t *testing.T, db *DB, w int, fn engine.TxFunc) engine.Outcome {
	t.Helper()
	for i := 0; i < 1000; i++ {
		out, err := db.Attempt(w, fn, engine.Now())
		if err != nil {
			t.Fatalf("attempt: %v", err)
		}
		if out != engine.Paused {
			return out
		}
	}
	t.Fatal("worker paused forever")
	return engine.Paused
}

func mustCommit(t *testing.T, db *DB, w int, fn engine.TxFunc) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if run(t, db, w, fn) == engine.Committed {
			return
		}
	}
	t.Fatal("never committed")
}

func TestJoinedPhaseBasics(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	if db.Phase() != PhaseJoined {
		t.Fatal("must start joined")
	}
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		if err := tx.PutInt("a", 5); err != nil {
			return err
		}
		return tx.Add("a", 2)
	})
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("a")
		if err != nil {
			return err
		}
		if n != 7 {
			return fmt.Errorf("got %d", n)
		}
		return nil
	})
	if db.Name() != "doppel" || db.Workers() != 1 {
		t.Fatal("metadata")
	}
}

func TestManualSplitAddAndStash(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.Store().Preload("hot", store.IntValue(100))
	db.SplitHint("hot", store.OpAdd)

	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	db.Poll(0) // single worker completes the transition itself
	if db.Phase() != PhaseSplit {
		t.Fatalf("phase %v", db.Phase())
	}

	// Adds go to the per-core slice.
	for i := 0; i < 10; i++ {
		if out := run(t, db, 0, func(tx engine.Tx) error { return tx.Add("hot", 1) }); out != engine.Committed {
			t.Fatalf("split add outcome %v", out)
		}
	}
	// The global store must NOT have changed yet.
	if n, _ := db.Store().Get("hot").Value().AsInt(); n != 100 {
		t.Fatalf("global changed during split phase: %d", n)
	}

	// A read of split data stashes.
	sawRead := int64(-1)
	out := run(t, db, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("hot")
		if err != nil {
			return err
		}
		sawRead = n
		return nil
	})
	if out != engine.Stashed {
		t.Fatalf("read of split data: %v", out)
	}
	// A Put to split data stashes.
	if out := run(t, db, 0, func(tx engine.Tx) error { return tx.PutInt("hot", 0) }); out != engine.Stashed {
		t.Fatalf("put to split data: %v", out)
	}
	// A different splittable op stashes too (only one selected op).
	if out := run(t, db, 0, func(tx engine.Tx) error { return tx.Max("hot", 5) }); out != engine.Stashed {
		t.Fatalf("max on add-split data: %v", out)
	}

	// Back to joined: reconciliation merges the slice, then the stash
	// drains (read sees merged value, put applies, max applies).
	if !db.RequestJoinedPhase() {
		t.Fatal("joined phase refused")
	}
	db.Poll(0)
	if db.Phase() != PhaseJoined {
		t.Fatalf("phase %v", db.Phase())
	}
	// Stashed read ran during drain and saw the reconciled value 110.
	if sawRead != 110 {
		t.Fatalf("stashed read saw %d, want 110", sawRead)
	}
	// Stashed Put(0) then Max(5) applied in order.
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("hot")
		if err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("final %d, want 5", n)
		}
		return nil
	})
	st := db.WorkerStats(0)
	// Each stashed transaction committed on its first replay, which is
	// its normal completion — not a retry.
	if st.Stashed.Load() != 3 || st.Retries.Load() != 0 {
		t.Fatalf("stash accounting: stashed=%d retries=%d", st.Stashed.Load(), st.Retries.Load())
	}
}

func TestSplitPhaseMaxMinMultOPutTopK(t *testing.T) {
	db := manualDB(2)
	defer db.Close()
	for _, k := range []string{"mx", "mn", "ml"} {
		db.Store().Preload(k, store.IntValue(10))
	}
	db.SplitHint("mx", store.OpMax)
	db.SplitHint("mn", store.OpMin)
	db.SplitHint("ml", store.OpMult)
	db.SplitHint("op", store.OpOPut)
	db.SplitHint("tk", store.OpTopKInsert)

	if !db.RequestSplitPhase() {
		t.Fatal("split refused")
	}
	db.Poll(0)
	db.Poll(1)
	if db.Phase() != PhaseSplit {
		t.Fatal("not split")
	}
	for w := 0; w < 2; w++ {
		w := w
		mustCommit(t, db, w, func(tx engine.Tx) error {
			if err := tx.Max("mx", int64(20+w)); err != nil {
				return err
			}
			if err := tx.Min("mn", int64(3-w)); err != nil {
				return err
			}
			if err := tx.Mult("ml", int64(2+w)); err != nil {
				return err
			}
			if err := tx.OPut("op", store.Order{A: int64(w)}, []byte(fmt.Sprintf("w%d", w))); err != nil {
				return err
			}
			return tx.TopKInsert("tk", int64(w), []byte(fmt.Sprintf("t%d", w)), 3)
		})
	}
	db.RequestJoinedPhase()
	db.Poll(0)
	db.Poll(1)
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("mx"); n != 21 {
			return fmt.Errorf("max %d", n)
		}
		if n, _ := tx.GetInt("mn"); n != 2 {
			return fmt.Errorf("min %d", n)
		}
		if n, _ := tx.GetInt("ml"); n != 60 {
			return fmt.Errorf("mult %d", n)
		}
		tp, ok, _ := tx.GetTuple("op")
		if !ok || string(tp.Data) != "w1" {
			return fmt.Errorf("oput %v %v", tp, ok)
		}
		es, _ := tx.GetTopK("tk")
		if len(es) != 2 || es[0].Order != 1 {
			return fmt.Errorf("topk %v", es)
		}
		return nil
	})
}

func TestNonSplitKeysNormalDuringSplitPhase(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.SplitHint("hot", store.OpAdd)
	db.RequestSplitPhase()
	db.Poll(0)
	// Ordinary records still work with full OCC semantics in the split
	// phase.
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		if err := tx.PutInt("cold", 9); err != nil {
			return err
		}
		n, err := tx.GetInt("cold")
		if err != nil {
			return err
		}
		if n != 9 {
			return fmt.Errorf("cold %d", n)
		}
		return tx.Add("hot", 1) // split write alongside normal writes
	})
	db.RequestJoinedPhase()
	db.Poll(0)
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("hot"); n != 1 {
			return fmt.Errorf("hot %d", n)
		}
		if n, _ := tx.GetInt("cold"); n != 9 {
			return fmt.Errorf("cold %d", n)
		}
		return nil
	})
}

func TestAbortedSplitTxnHasNoSliceEffects(t *testing.T) {
	db := manualDB(2)
	defer db.Close()
	db.Store().Preload("cold", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	db.RequestSplitPhase()
	db.Poll(0)
	db.Poll(1)

	// Worker 0 reads "cold" then writes split "hot"; between its read and
	// commit, worker 1 updates "cold", forcing worker 0 to abort. The
	// slice write must not survive the abort.
	out := run(t, db, 0, func(tx engine.Tx) error {
		if _, err := tx.GetInt("cold"); err != nil {
			return err
		}
		if err := tx.Add("hot", 100); err != nil {
			return err
		}
		mustCommit(t, db, 1, func(tx2 engine.Tx) error { return tx2.PutInt("cold", 1) })
		return nil
	})
	if out != engine.Aborted {
		t.Fatalf("expected abort, got %v", out)
	}
	db.RequestJoinedPhase()
	db.Poll(0)
	db.Poll(1)
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("hot"); n != 0 {
			return fmt.Errorf("aborted slice write leaked: %d", n)
		}
		return nil
	})
}

func TestUserAbortInSplitPhase(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.SplitHint("hot", store.OpAdd)
	db.RequestSplitPhase()
	db.Poll(0)
	boom := errors.New("boom")
	out, err := db.Attempt(0, func(tx engine.Tx) error {
		_ = tx.Add("hot", 7)
		return boom
	}, engine.Now())
	if out != engine.UserAbort || !errors.Is(err, boom) {
		t.Fatalf("%v %v", out, err)
	}
	db.RequestJoinedPhase()
	db.Poll(0)
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("hot"); n != 0 {
			return fmt.Errorf("user-aborted slice write leaked: %d", n)
		}
		return nil
	})
}

func TestCloseReconcilesAndDrains(t *testing.T) {
	db := manualDB(1)
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	db.RequestSplitPhase()
	db.Poll(0)
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.Add("hot", 5) })
	var stashedRead int64 = -1
	out := run(t, db, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("hot")
		stashedRead = n
		return err
	})
	if out != engine.Stashed {
		t.Fatalf("outcome %v", out)
	}
	// Close while still in the split phase: it must reconcile the slice
	// and run the stashed read.
	db.Close()
	if n, _ := db.Store().Get("hot").Value().AsInt(); n != 5 {
		t.Fatalf("close did not reconcile: %d", n)
	}
	if stashedRead != 5 {
		t.Fatalf("stashed read not drained: %d", stashedRead)
	}
	if db.Phase() != PhaseJoined {
		t.Fatal("close should end joined")
	}
	db.Close() // idempotent
}

func TestCloseCompletesInflightTransition(t *testing.T) {
	db := manualDB(2)
	db.SplitHint("hot", store.OpAdd)
	db.RequestSplitPhase()
	db.Poll(0) // worker 0 acks; worker 1 never does
	if db.Phase() != PhaseJoined {
		t.Fatal("transition should be incomplete")
	}
	db.Close()
	if db.Phase() != PhaseJoined {
		t.Fatal("close must settle in joined phase")
	}
}

func TestPausedWhileTransitionPending(t *testing.T) {
	db := manualDB(2)
	defer db.Close()
	db.SplitHint("h", store.OpAdd)
	db.RequestSplitPhase()
	// Worker 0 acks; transition still pending (worker 1 silent), so
	// worker 0 must observe Paused rather than executing.
	out, err := db.Attempt(0, func(tx engine.Tx) error { return nil }, engine.Now())
	if err != nil || out != engine.Paused {
		t.Fatalf("%v %v", out, err)
	}
	// Worker 1 acks and completes; both can run now.
	db.Poll(1)
	if db.Phase() != PhaseSplit {
		t.Fatal("transition incomplete after all acks")
	}
	if out := run(t, db, 0, func(tx engine.Tx) error { return tx.Add("h", 1) }); out != engine.Committed {
		t.Fatalf("after release: %v", out)
	}
}

// TestConcurrentHotAddNoLostUpdates is the headline invariant: with the
// coordinator cycling phases, concurrent increments of one hot key from
// many workers must all be reflected after Close (no updates lost across
// split/reconcile cycles).
func TestConcurrentHotAddNoLostUpdates(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PhaseLength = 2 * time.Millisecond
	cfg.SplitMinConflicts = 2
	cfg.SplitFraction = 0.001
	db := Open(store.New(), cfg)
	db.Store().Preload("hot", store.IntValue(0))

	const perWorker = 20000
	var wg sync.WaitGroup
	var quota sync.WaitGroup
	var stopPolling atomic.Bool
	var committed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		quota.Add(1)
		go func(w int) {
			defer wg.Done()
			done := 0
			for done < perWorker {
				out, err := db.Attempt(w, func(tx engine.Tx) error {
					return tx.Add("hot", 1)
				}, engine.Now())
				if err != nil {
					t.Error(err)
					break
				}
				switch out {
				case engine.Committed, engine.Stashed:
					// Stashed adds will commit during a later drain;
					// count them as submitted work.
					done++
					committed.Add(1)
				}
			}
			// Keep participating in phase transitions until every
			// worker finishes, else the others stall.
			quota.Done()
			for !stopPolling.Load() {
				db.Poll(w)
			}
		}(w)
	}
	quota.Wait()
	stopPolling.Store(true)
	wg.Wait()
	db.Close()
	final, _ := db.Store().Get("hot").Value().AsInt()
	if final != committed.Load() {
		t.Fatalf("lost updates: final=%d committed=%d", final, committed.Load())
	}
	if final != 4*perWorker {
		t.Fatalf("final=%d want %d", final, 4*perWorker)
	}
}

// TestConcurrentMixedWorkloadWithCoordinator mixes reads and writes of a
// hot key under automatic phase cycling and checks conservation.
func TestConcurrentMixedWorkloadWithCoordinator(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PhaseLength = 2 * time.Millisecond
	cfg.SplitMinConflicts = 2
	cfg.SplitFraction = 0.001
	db := Open(store.New(), cfg)
	db.Store().Preload("page", store.IntValue(0))
	for u := 0; u < 100; u++ {
		db.Store().Preload(fmt.Sprintf("user%d", u), store.IntValue(0))
	}

	var adds atomic.Int64
	var wg sync.WaitGroup
	var quota sync.WaitGroup
	var stopPolling atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		quota.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				quota.Done()
				for !stopPolling.Load() {
					db.Poll(w)
				}
			}()
			r := rng.New(uint64(w) + 31)
			for i := 0; i < 8000; i++ {
				user := fmt.Sprintf("user%d", r.Intn(100))
				if r.Bool(0.5) {
					out, err := db.Attempt(w, func(tx engine.Tx) error {
						if err := tx.PutInt(user, int64(i)); err != nil {
							return err
						}
						return tx.Add("page", 1)
					}, engine.Now())
					if err != nil {
						t.Error(err)
						return
					}
					if out == engine.Committed || out == engine.Stashed {
						adds.Add(1)
					}
				} else {
					// Read transaction; may stash or abort, both fine.
					_, err := db.Attempt(w, func(tx engine.Tx) error {
						if _, err := tx.GetInt("page"); err != nil {
							return err
						}
						_, err := tx.GetInt(user)
						return err
					}, engine.Now())
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	quota.Wait()
	stopPolling.Store(true)
	wg.Wait()
	db.Close()
	final, _ := db.Store().Get("page").Value().AsInt()
	if final != adds.Load() {
		t.Fatalf("page count %d != committed adds %d", final, adds.Load())
	}
}

func TestPhaseStringAndOutcomeString(t *testing.T) {
	if PhaseJoined.String() != "joined" || PhaseSplit.String() != "split" {
		t.Fatal("phase strings")
	}
	for o := engine.Committed; o <= engine.Paused+1; o++ {
		if o.String() == "" {
			t.Fatal("outcome string")
		}
	}
}

func TestSplitHintValidation(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.SplitHint("k", store.OpPut) // not splittable; ignored
	if db.RequestSplitPhase() {
		t.Fatal("split phase with no valid hints should be refused")
	}
	db.SplitHint("k", store.OpAdd)
	db.ClearSplitHint("k")
	if db.RequestSplitPhase() {
		t.Fatal("cleared hint should not split")
	}
}

func TestSplitKeysReporting(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.SplitHint("a", store.OpAdd)
	db.SplitHint("b", store.OpMax)
	db.RequestSplitPhase()
	db.Poll(0)
	keys := db.SplitKeys()
	if len(keys) != 2 {
		t.Fatalf("split keys %v", keys)
	}
	if db.PhaseChanges() == 0 {
		t.Fatal("phase changes not counted")
	}
}

func TestReconcileBumpsTIDForValidation(t *testing.T) {
	// A joined-phase reader that read a key before it was split must
	// fail validation if reconciliation changed the value.
	db := manualDB(2)
	defer db.Close()
	db.Store().Preload("k", store.IntValue(0))
	rec := db.Store().Get("k")
	tidBefore, _ := rec.TIDWord()

	db.SplitHint("k", store.OpAdd)
	db.RequestSplitPhase()
	db.Poll(0)
	db.Poll(1)
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.Add("k", 3) })
	db.RequestJoinedPhase()
	db.Poll(0)
	db.Poll(1)

	tidAfter, _ := rec.TIDWord()
	if tidAfter <= tidBefore {
		t.Fatalf("reconcile did not advance TID: %d -> %d", tidBefore, tidAfter)
	}
	if n, _ := rec.Value().AsInt(); n != 3 {
		t.Fatalf("reconcile value %d", n)
	}
}

// TestRequestBarrier: the barrier function runs exactly once, at a point
// where every worker is paused, and the database continues normally
// afterwards — including a joined→joined barrier, which is not a normal
// phase transition.
func TestRequestBarrier(t *testing.T) {
	db := manualDB(2)
	defer db.Close()
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.PutInt("a", 1) })

	var calls atomic.Int32
	if busy := db.RequestBarrier(func() { calls.Add(1) }); busy != nil {
		t.Fatal("barrier refused")
	}
	busy := db.RequestBarrier(func() {})
	if busy == nil {
		t.Fatal("second barrier accepted while one is in flight")
	}
	select {
	case <-busy:
		t.Fatal("in-flight barrier released before any worker polled")
	default:
	}
	for i := 0; i < 1000 && calls.Load() == 0; i++ {
		db.Poll(0)
		db.Poll(1)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("barrier ran %d times, want 1", got)
	}
	select {
	case <-busy: // the refused caller learns the barrier completed
	default:
		t.Fatal("release channel still open after the barrier completed")
	}
	if db.Phase() != PhaseJoined {
		t.Fatalf("phase %v after barrier", db.Phase())
	}
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.PutInt("a", 2) })
}

// TestRequestBarrierDuringSplitReconciles: a barrier cut during a split
// phase must observe fully reconciled state — the per-core slices merge
// before the barrier function runs.
func TestRequestBarrierDuringSplitReconciles(t *testing.T) {
	db := manualDB(2)
	defer db.Close()
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	if !db.RequestSplitPhase() {
		t.Fatal("split refused")
	}
	db.Poll(0)
	db.Poll(1)
	if db.Phase() != PhaseSplit {
		t.Fatal("not split")
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 10; i++ {
			mustCommit(t, db, w, func(tx engine.Tx) error { return tx.Add("hot", 1) })
		}
	}
	var atBarrier int64 = -1
	if busy := db.RequestBarrier(func() {
		atBarrier, _ = db.Store().Get("hot").Value().AsInt()
	}); busy != nil {
		t.Fatal("barrier refused")
	}
	for i := 0; i < 1000 && atBarrier < 0; i++ {
		db.Poll(0)
		db.Poll(1)
	}
	if atBarrier != 20 {
		t.Fatalf("barrier saw %d, want 20 (slices reconciled)", atBarrier)
	}
	if db.Phase() != PhaseJoined {
		t.Fatal("barrier must land in a joined phase")
	}
}

// TestBarrierCompletedByClose: a published barrier whose workers are
// never polled still runs during Close's quiesce.
func TestBarrierCompletedByClose(t *testing.T) {
	db := manualDB(2)
	var calls atomic.Int32
	if busy := db.RequestBarrier(func() { calls.Add(1) }); busy != nil {
		t.Fatal("barrier refused")
	}
	db.Close()
	if got := calls.Load(); got != 1 {
		t.Fatalf("barrier ran %d times, want 1", got)
	}
}

// TestBarrierDoesNotPerturbPhaseAccounting: a joined→joined checkpoint
// barrier is not a phase change — it must not bump PhaseChanges or
// reset the phase clock, or frequent checkpoints would starve split
// phases by keeping the joined phase perpetually "young".
func TestBarrierDoesNotPerturbPhaseAccounting(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	before := db.PhaseChanges()
	startNs := db.phaseStartNs.Load()
	ran := false
	if busy := db.RequestBarrier(func() { ran = true }); busy != nil {
		t.Fatal("barrier refused")
	}
	for i := 0; i < 1000 && !ran; i++ {
		db.Poll(0)
	}
	if !ran {
		t.Fatal("barrier never ran")
	}
	if got := db.PhaseChanges(); got != before {
		t.Fatalf("PhaseChanges %d → %d across a joined→joined barrier", before, got)
	}
	if db.phaseStartNs.Load() != startNs {
		t.Fatal("phase clock reset by a joined→joined barrier")
	}
}
