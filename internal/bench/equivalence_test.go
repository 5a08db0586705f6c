package bench

// Cross-engine equivalence: the same deterministic transaction script,
// executed serially, must leave identical database state under Doppel,
// OCC, 2PL and Atomic. This pins down the shared operation semantics
// (store.Apply) across all four commit protocols, including Doppel with
// forced phase cycling in the middle of the script.

import (
	"fmt"
	"testing"

	"doppel/internal/atomiceng"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/occ"
	"doppel/internal/rng"
	"doppel/internal/store"
	"doppel/internal/twopl"
)

// scriptStep is one deterministic transaction in the script.
type scriptStep struct {
	fn engine.TxFunc
}

// buildScript produces a deterministic sequence of single- and
// multi-record transactions across every operation type.
func buildScript(seed uint64, n int) []scriptStep {
	r := rng.New(seed)
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("eq-key-%02d", i)
	}
	steps := make([]scriptStep, 0, n)
	for i := 0; i < n; i++ {
		k := keys[r.Intn(len(keys)/2)] // int keys in the first half
		tup := keys[6+r.Intn(2)]
		topk := keys[8+r.Intn(2)]
		blob := keys[10+r.Intn(2)]
		op := r.Intn(8)
		amt := int64(r.Intn(100))
		w := int32(r.Intn(4))
		steps = append(steps, scriptStep{fn: func(tx engine.Tx) error {
			switch op {
			case 0:
				return tx.Add(k, amt)
			case 1:
				return tx.Max(k, amt)
			case 2:
				return tx.Min(k, amt-50)
			case 3:
				// Multi-record: transfer-style read-then-write plus an add.
				n, err := tx.GetIntForUpdate(k)
				if err != nil {
					return err
				}
				if err := tx.PutInt(k, n+1); err != nil {
					return err
				}
				return tx.Add(keys[5], 1)
			case 4:
				return tx.OPut(tup, store.Order{A: amt, B: int64(w)}, []byte(fmt.Sprintf("v%d", amt)))
			case 5:
				return tx.TopKInsert(topk, amt, []byte(fmt.Sprintf("e%d", amt%7)), 5)
			case 6:
				return tx.PutBytes(blob, []byte(fmt.Sprintf("blob-%d", amt)))
			default:
				// Read-only transaction.
				if _, err := tx.GetInt(k); err != nil {
					return err
				}
				_, err := tx.GetTopK(topk)
				return err
			}
		}})
	}
	return steps
}

// snapshot captures the final state of the script's key space.
func snapshot(t *testing.T, st *store.Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	st.Range(func(k string, rec *store.Record) bool {
		v := rec.Value()
		if v != nil {
			out[k] = v.String()
		}
		return true
	})
	return out
}

func runScript(t *testing.T, e engine.Engine, steps []scriptStep, cyclePhases *core.DB) {
	t.Helper()
	for i, s := range steps {
		for attempt := 0; ; attempt++ {
			out, err := e.Attempt(0, s.fn, engine.Now())
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if out == engine.Committed {
				break
			}
			if out == engine.Stashed {
				// Drain immediately so the stashed transaction commits
				// before the next script step; otherwise the engines
				// would execute different serial orders and the final
				// states could legitimately diverge (Max and Add do not
				// commute with each other).
				if cyclePhases == nil {
					t.Fatalf("step %d stashed on a non-Doppel engine", i)
				}
				cyclePhases.RequestJoinedPhase()
				for cyclePhases.StashLen(0) > 0 {
					e.Poll(0)
				}
				break
			}
			if out == engine.Paused {
				e.Poll(0)
			}
			if attempt > 100000 {
				t.Fatalf("step %d never committed", i)
			}
		}
		// With Doppel, cycle phases mid-script so some operations run
		// against slices and reconcile.
		if cyclePhases != nil && i%25 == 24 {
			if cyclePhases.Phase() == core.PhaseJoined {
				cyclePhases.RequestSplitPhase()
			} else {
				cyclePhases.RequestJoinedPhase()
			}
			e.Poll(0)
		}
	}
}

func TestCrossEngineEquivalence(t *testing.T) {
	const steps = 400
	for _, seed := range []uint64{1, 7, 1234} {
		var reference map[string]string
		// Doppel with manual phases and hints so split execution really
		// happens mid-script.
		{
			st := store.New()
			cfg := core.DefaultConfig(1)
			cfg.PhaseLength = 0
			db := core.Open(st, cfg)
			db.SplitHint("eq-key-00", store.OpAdd)
			db.SplitHint("eq-key-08", store.OpTopKInsert)
			runScript(t, db, buildScript(seed, steps), db)
			db.Close()
			reference = snapshot(t, st)
			if len(reference) == 0 {
				t.Fatal("empty reference state")
			}
		}
		engines := map[string]func() (engine.Engine, *store.Store){
			"occ": func() (engine.Engine, *store.Store) {
				st := store.New()
				return occ.New(st, 1), st
			},
			"2pl": func() (engine.Engine, *store.Store) {
				st := store.New()
				return twopl.New(st, 1), st
			},
			"atomic": func() (engine.Engine, *store.Store) {
				st := store.New()
				return atomiceng.New(st, 1), st
			},
			"doppel-nosplit": func() (engine.Engine, *store.Store) {
				st := store.New()
				cfg := core.DefaultConfig(1)
				cfg.PhaseLength = 0
				return core.Open(st, cfg), st
			},
		}
		for name, mk := range engines {
			e, st := mk()
			runScript(t, e, buildScript(seed, steps), nil)
			e.Stop()
			got := snapshot(t, st)
			if len(got) != len(reference) {
				t.Fatalf("seed %d %s: %d keys vs reference %d", seed, name, len(got), len(reference))
			}
			for k, want := range reference {
				if got[k] != want {
					t.Fatalf("seed %d %s: key %s = %s, reference %s", seed, name, k, got[k], want)
				}
			}
		}
	}
}
