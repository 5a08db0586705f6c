package engine_test

import (
	"errors"
	"testing"

	"doppel/internal/atomiceng"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/occ"
	"doppel/internal/store"
	"doppel/internal/twopl"
)

// Every concurrency-control scheme in the repository must satisfy the
// shared Engine contract.
var (
	_ engine.Engine = (*core.DB)(nil)
	_ engine.Engine = (*occ.Engine)(nil)
	_ engine.Engine = (*twopl.Engine)(nil)
	_ engine.Engine = (*atomiceng.Engine)(nil)
)

func TestOutcomeString(t *testing.T) {
	want := map[engine.Outcome]string{
		engine.Committed:   "committed",
		engine.Aborted:     "aborted",
		engine.Stashed:     "stashed",
		engine.UserAbort:   "user-abort",
		engine.Paused:      "paused",
		engine.Outcome(99): "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestSentinelErrorsDistinct(t *testing.T) {
	errs := []error{engine.ErrAbort, engine.ErrStash, engine.ErrUnsupported}
	for i, a := range errs {
		if a == nil || a.Error() == "" {
			t.Fatalf("sentinel %d is empty", i)
		}
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinels %d and %d are not distinct", i, j)
			}
		}
	}
}

// commit drives one Attempt to a terminal outcome the way harness and
// production loops do: Paused and Aborted are retried after Poll.
func commit(t *testing.T, e engine.Engine, w int, fn engine.TxFunc) (engine.Outcome, error) {
	t.Helper()
	for tries := 0; tries < 100_000; tries++ {
		out, err := e.Attempt(w, fn, 0)
		switch out {
		case engine.Paused, engine.Aborted:
			e.Poll(w)
			continue
		default:
			return out, err
		}
	}
	t.Fatal("transaction never reached a terminal outcome")
	return 0, nil
}

// TestTxContract exercises the Tx semantics both OCC and Doppel's split
// execution must provide: read-your-writes, commit visibility,
// WorkerID, GetForUpdate-as-Get, and user aborts discarding all
// effects.
func TestTxContract(t *testing.T) {
	engines := map[string]func() engine.Engine{
		"occ": func() engine.Engine { return occ.New(store.New(), 1) },
		"doppel": func() engine.Engine {
			return core.Open(store.New(), core.DefaultConfig(1))
		},
		"2pl": func() engine.Engine { return twopl.New(store.New(), 1) },
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			e := build()
			defer e.Stop()

			out, err := commit(t, e, 0, func(tx engine.Tx) error {
				if got := tx.WorkerID(); got != 0 {
					t.Errorf("WorkerID = %d, want 0", got)
				}
				if err := tx.PutInt("a", 1); err != nil {
					return err
				}
				// Read-your-writes within the transaction.
				n, err := tx.GetInt("a")
				if err != nil {
					return err
				}
				if n != 1 {
					t.Errorf("read-your-writes: a = %d, want 1", n)
				}
				return tx.Add("a", 2)
			})
			if out != engine.Committed || err != nil {
				t.Fatalf("commit: %v %v", out, err)
			}

			// Committed effects are visible, via GetForUpdate and Get alike.
			// GetForUpdate comes first: 2PL treats a plain read followed by
			// GetForUpdate as a forbidden lock upgrade.
			out, err = commit(t, e, 0, func(tx engine.Tx) error {
				v, err := tx.GetForUpdate("a")
				if err != nil {
					return err
				}
				if got, _ := v.AsInt(); got != 3 {
					t.Errorf("GetForUpdate a = %d, want 3", got)
				}
				n, err := tx.GetInt("a")
				if err != nil {
					return err
				}
				if n != 3 {
					t.Errorf("a = %d, want 3", n)
				}
				return nil
			})
			if out != engine.Committed || err != nil {
				t.Fatalf("read: %v %v", out, err)
			}

			// A user abort surfaces the body's own error and discards all
			// buffered effects.
			boom := errors.New("boom")
			out, err = commit(t, e, 0, func(tx engine.Tx) error {
				if err := tx.Add("a", 100); err != nil {
					return err
				}
				return boom
			})
			if out != engine.UserAbort || !errors.Is(err, boom) {
				t.Fatalf("user abort: %v %v", out, err)
			}
			out, err = commit(t, e, 0, func(tx engine.Tx) error {
				n, err := tx.GetInt("a")
				if err != nil {
					return err
				}
				if n != 3 {
					t.Errorf("a = %d after user abort, want 3 (abort leaked writes)", n)
				}
				return nil
			})
			if out != engine.Committed || err != nil {
				t.Fatalf("post-abort read: %v %v", out, err)
			}

			// Commits count in the worker's stats.
			if s := e.WorkerStats(0); s.Committed.Load() == 0 {
				t.Error("WorkerStats.Committed = 0 after commits")
			}
			if e.Workers() != 1 {
				t.Errorf("Workers = %d, want 1", e.Workers())
			}
			if e.Name() == "" {
				t.Error("empty engine name")
			}
		})
	}
}

// TestSplittableOps runs every splittable operation through OCC and
// Doppel and checks the merged outcome, since these are the operations
// phase reconciliation reorders across cores.
func TestSplittableOps(t *testing.T) {
	engines := map[string]func() engine.Engine{
		"occ": func() engine.Engine { return occ.New(store.New(), 1) },
		"doppel": func() engine.Engine {
			return core.Open(store.New(), core.DefaultConfig(1))
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			e := build()
			defer e.Stop()
			out, err := commit(t, e, 0, func(tx engine.Tx) error {
				if err := tx.Add("sum", 5); err != nil {
					return err
				}
				if err := tx.Max("hi", 7); err != nil {
					return err
				}
				if err := tx.Min("lo", -7); err != nil {
					return err
				}
				if err := tx.OPut("last", store.Order{A: 9}, []byte("x")); err != nil {
					return err
				}
				return tx.TopKInsert("top", 3, []byte("e"), 4)
			})
			if out != engine.Committed || err != nil {
				t.Fatalf("splittable commit: %v %v", out, err)
			}
			out, err = commit(t, e, 0, func(tx engine.Tx) error {
				if n, _ := tx.GetInt("sum"); n != 5 {
					t.Errorf("sum = %d", n)
				}
				if n, _ := tx.GetInt("hi"); n != 7 {
					t.Errorf("hi = %d", n)
				}
				if n, _ := tx.GetInt("lo"); n != -7 {
					t.Errorf("lo = %d", n)
				}
				tup, ok, err := tx.GetTuple("last")
				if err != nil || !ok || string(tup.Data) != "x" || tup.Order.A != 9 {
					t.Errorf("last = %+v %v %v", tup, ok, err)
				}
				es, err := tx.GetTopK("top")
				if err != nil || len(es) != 1 || string(es[0].Data) != "e" {
					t.Errorf("top = %+v %v", es, err)
				}
				return nil
			})
			if out != engine.Committed || err != nil {
				t.Fatalf("verify: %v %v", out, err)
			}
		})
	}
}
