package occ

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"doppel/internal/engine"
	"doppel/internal/rng"
	"doppel/internal/store"
)

func run(t *testing.T, e *Engine, w int, fn engine.TxFunc) engine.Outcome {
	t.Helper()
	out, err := e.Attempt(w, fn, engine.Now())
	if err != nil {
		t.Fatalf("attempt error: %v", err)
	}
	return out
}

// mustCommit retries until the transaction commits.
func mustCommit(t *testing.T, e *Engine, w int, fn engine.TxFunc) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if run(t, e, w, fn) == engine.Committed {
			return
		}
	}
	t.Fatal("transaction never committed")
}

func TestBasicPutGet(t *testing.T) {
	e := New(store.New(), 1)
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.PutInt("a", 41); err != nil {
			return err
		}
		return tx.Add("a", 1)
	})
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("a")
		if err != nil {
			return err
		}
		if n != 42 {
			return fmt.Errorf("got %d", n)
		}
		return nil
	})
	if e.Name() != "occ" || e.Workers() != 1 {
		t.Fatal("metadata wrong")
	}
	e.Poll(0)
	e.Stop()
}

func TestReadYourWrites(t *testing.T) {
	e := New(store.New(), 1)
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.PutInt("k", 10); err != nil {
			return err
		}
		if err := tx.Add("k", 5); err != nil {
			return err
		}
		n, err := tx.GetInt("k")
		if err != nil {
			return err
		}
		if n != 15 {
			return fmt.Errorf("read-your-writes got %d", n)
		}
		return nil
	})
}

func TestGetMissingIsAbsent(t *testing.T) {
	e := New(store.New(), 1)
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		v, err := tx.Get("missing")
		if err != nil {
			return err
		}
		if v != nil {
			return errors.New("expected absent value")
		}
		n, err := tx.GetInt("missing2")
		if err != nil || n != 0 {
			return fmt.Errorf("GetInt missing: %d %v", n, err)
		}
		b, err := tx.GetBytes("missing3")
		if err != nil || b != nil {
			return fmt.Errorf("GetBytes missing: %v %v", b, err)
		}
		_, ok, err := tx.GetTuple("missing4")
		if err != nil || ok {
			return fmt.Errorf("GetTuple missing: %v %v", ok, err)
		}
		es, err := tx.GetTopK("missing5")
		if err != nil || es != nil {
			return fmt.Errorf("GetTopK missing: %v %v", es, err)
		}
		return nil
	})
}

func TestAllOps(t *testing.T) {
	e := New(store.New(), 1)
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.Max("m", 5); err != nil {
			return err
		}
		if err := tx.Max("m", 3); err != nil {
			return err
		}
		if err := tx.Min("n", 5); err != nil {
			return err
		}
		if err := tx.Min("n", 2); err != nil {
			return err
		}
		if err := tx.Mult("p", 3); err != nil {
			return err
		}
		if err := tx.Mult("p", 4); err != nil {
			return err
		}
		if err := tx.OPut("o", store.Order{A: 9}, []byte("hi")); err != nil {
			return err
		}
		if err := tx.TopKInsert("t", 7, []byte("x"), 3); err != nil {
			return err
		}
		return tx.PutBytes("b", []byte("bytes"))
	})
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("m"); n != 5 {
			return fmt.Errorf("max=%d", n)
		}
		if n, _ := tx.GetInt("n"); n != 2 {
			return fmt.Errorf("min=%d", n)
		}
		if n, _ := tx.GetInt("p"); n != 12 {
			return fmt.Errorf("mult=%d", n)
		}
		tp, ok, _ := tx.GetTuple("o")
		if !ok || string(tp.Data) != "hi" {
			return fmt.Errorf("oput=%v,%v", tp, ok)
		}
		es, _ := tx.GetTopK("t")
		if len(es) != 1 || es[0].Order != 7 {
			return fmt.Errorf("topk=%v", es)
		}
		b, _ := tx.GetBytes("b")
		if string(b) != "bytes" {
			return fmt.Errorf("bytes=%q", b)
		}
		if v, _ := tx.GetForUpdate("m"); v == nil {
			return errors.New("GetForUpdate")
		}
		if n, _ := tx.GetIntForUpdate("m"); n != 5 {
			return errors.New("GetIntForUpdate")
		}
		if tx.WorkerID() != 0 {
			return errors.New("worker id")
		}
		return nil
	})
}

func TestUserAbortSurfaced(t *testing.T) {
	e := New(store.New(), 1)
	myErr := errors.New("boom")
	out, err := e.Attempt(0, func(tx engine.Tx) error {
		_ = tx.PutInt("x", 1)
		return myErr
	}, engine.Now())
	if out != engine.UserAbort || !errors.Is(err, myErr) {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// The buffered write must not have been applied.
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("x"); n != 0 {
			return fmt.Errorf("aborted write leaked: %d", n)
		}
		return nil
	})
}

func TestTypeErrorAtCommitHasNoEffects(t *testing.T) {
	e := New(store.New(), 1)
	mustCommit(t, e, 0, func(tx engine.Tx) error { return tx.PutBytes("s", []byte("str")) })
	out, err := e.Attempt(0, func(tx engine.Tx) error {
		if err := tx.PutInt("ok", 7); err != nil {
			return err
		}
		// Type error only discovered at apply time: Add to a bytes record.
		return tx.Add("s", 1)
	}, engine.Now())
	if out != engine.UserAbort || err == nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("ok"); n != 0 {
			return fmt.Errorf("partial commit leaked: %d", n)
		}
		return nil
	})
}

func TestConflictingIncrementsNoLostUpdates(t *testing.T) {
	e := New(store.New(), 4)
	e.Store().Preload("ctr", store.IntValue(0))
	const perWorker = 2000
	var wg sync.WaitGroup
	commits := make([]int, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			done := 0
			for done < perWorker {
				out, err := e.Attempt(w, func(tx engine.Tx) error {
					return tx.Add("ctr", 1)
				}, engine.Now())
				if err != nil {
					t.Error(err)
					return
				}
				if out == engine.Committed {
					done++
				} else {
					// Tiny randomized backoff.
					for i := uint64(0); i < r.Uint64n(64); i++ {
						_ = i
					}
				}
			}
			commits[w] = done
		}(w)
	}
	wg.Wait()
	var final int64
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("ctr")
		final = n
		return err
	})
	if final != 4*perWorker {
		t.Fatalf("lost updates: final=%d want %d", final, 4*perWorker)
	}
	// Stats should account for every commit.
	total := uint64(0)
	for w := 0; w < 4; w++ {
		total += e.WorkerStats(w).Committed.Load()
	}
	if total < 4*perWorker {
		t.Fatalf("stats undercount: %d", total)
	}
}

// TestTransferInvariant runs concurrent transfers between accounts and
// checks that the total balance is conserved — the classic
// serializability smoke test.
func TestTransferInvariant(t *testing.T) {
	const accounts = 10
	const workers = 4
	const transfers = 1500
	e := New(store.New(), workers)
	for i := 0; i < accounts; i++ {
		e.Store().Preload(fmt.Sprintf("acct%d", i), store.IntValue(1000))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 99)
			done := 0
			for done < transfers {
				from := fmt.Sprintf("acct%d", r.Intn(accounts))
				to := fmt.Sprintf("acct%d", r.Intn(accounts))
				amt := int64(r.Intn(50))
				out, err := e.Attempt(w, func(tx engine.Tx) error {
					b, err := tx.GetInt(from)
					if err != nil {
						return err
					}
					if err := tx.PutInt(from, b-amt); err != nil {
						return err
					}
					b2, err := tx.GetInt(to)
					if err != nil {
						return err
					}
					return tx.PutInt(to, b2+amt)
				}, engine.Now())
				if err != nil {
					t.Error(err)
					return
				}
				if out == engine.Committed {
					done++
				}
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	mustCommit(t, e, 0, func(tx engine.Tx) error {
		sum = 0
		for i := 0; i < accounts; i++ {
			n, err := tx.GetInt(fmt.Sprintf("acct%d", i))
			if err != nil {
				return err
			}
			sum += n
		}
		return nil
	})
	if sum != accounts*1000 {
		t.Fatalf("balance not conserved: %d", sum)
	}
}

func TestReadOnlyValidationAborts(t *testing.T) {
	// A read-only transaction whose read set changed must abort.
	st := store.New()
	e := New(st, 2)
	st.Preload("k", store.IntValue(1))
	out, err := e.Attempt(0, func(tx engine.Tx) error {
		if _, err := tx.GetInt("k"); err != nil {
			return err
		}
		// Concurrent writer commits between our read and our commit.
		mustCommit(t, e, 1, func(tx2 engine.Tx) error { return tx2.PutInt("k", 2) })
		return nil
	}, engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if out != engine.Aborted {
		t.Fatalf("expected abort, got %v", out)
	}
}

func TestWriteSkewPrevented(t *testing.T) {
	// Classic write skew: two txns each read both keys and write one.
	// Serializable execution forbids both committing from the same
	// initial state. We interleave them deterministically.
	st := store.New()
	e := New(st, 2)
	st.Preload("x", store.IntValue(1))
	st.Preload("y", store.IntValue(1))

	var out0, out1 engine.Outcome
	out0, _ = e.Attempt(0, func(tx engine.Tx) error {
		x, _ := tx.GetInt("x")
		y, _ := tx.GetInt("y")
		// Inner transaction on worker 1 does the symmetric thing and
		// commits first.
		out1, _ = e.Attempt(1, func(tx2 engine.Tx) error {
			x2, _ := tx2.GetInt("x")
			y2, _ := tx2.GetInt("y")
			return tx2.PutInt("x", x2+y2)
		}, engine.Now())
		return tx.PutInt("y", x+y)
	}, engine.Now())

	if out1 != engine.Committed {
		t.Fatalf("inner should commit, got %v", out1)
	}
	if out0 != engine.Aborted {
		t.Fatalf("outer must abort (write skew), got %v", out0)
	}
}

func TestLatencyRecorded(t *testing.T) {
	e := New(store.New(), 1)
	mustCommit(t, e, 0, func(tx engine.Tx) error { return tx.PutInt("a", 1) })
	mustCommit(t, e, 0, func(tx engine.Tx) error { _, err := tx.GetInt("a"); return err })
	s := e.WorkerStats(0)
	if s.WriteLatency.Count() != 1 || s.ReadLatency.Count() != 1 {
		t.Fatalf("latency counts: w=%d r=%d", s.WriteLatency.Count(), s.ReadLatency.Count())
	}
}

func TestTIDsMonotonePerRecord(t *testing.T) {
	e := New(store.New(), 2)
	var last uint64
	for i := 0; i < 100; i++ {
		w := i % 2
		mustCommit(t, e, w, func(tx engine.Tx) error { return tx.Add("k", 1) })
		rec := e.Store().Get("k")
		tid, locked := rec.TIDWord()
		if locked {
			t.Fatal("record left locked")
		}
		if tid <= last {
			t.Fatalf("TID not increasing: %d then %d", last, tid)
		}
		last = tid
	}
}
