package main

import (
	"errors"
	"fmt"
	"time"

	"doppel"
	"doppel/internal/core"
	"doppel/internal/rng"
	"doppel/internal/store"
)

// hotCounter is the paper's INCR1 shape (Fig. 8, Table 3) on an embedded
// doppel.DB: half the increments hit one counter, which is split-hinted,
// so split-phase slice writes, reconciliation, stashed reads and phase
// churn do most of the work. No log, no router, no server.
type hotCounter struct {
	keys []string
	hot  int32
	db   *doppel.DB
}

const (
	hotWindow   = 8    // closed-loop increments in flight
	hotReadRate = 2000 // open-loop reads of the hot key per second
)

func newHotCounter(cfg config) *hotCounter {
	h := &hotCounter{keys: keyTable('c', cfg.keys)}
	h.hot = int32(rng.New(cfg.seed ^ 0x686f74).Intn(cfg.keys))
	return h
}

func (h *hotCounter) params() (int, float64) { return hotWindow, hotReadRate }

func (h *hotCounter) open(dir string) error {
	h.db = doppel.Open(doppel.Options{Workers: 2, PhaseLength: 20 * time.Millisecond})
	preloadInts(h.db.Internal().Store(), h.keys, 0)
	h.db.SplitHint(h.keys[h.hot], doppel.OpAdd)
	return nil
}

func (h *hotCounter) submitter(g *gen) submitter {
	db := h.db
	return func(s *slot) { db.ExecAsync(s.fn, s.done) }
}

func (h *hotCounter) dbs() []*doppel.DB { return []*doppel.DB{h.db} }

func (h *hotCounter) logDirs() []string { return nil }

func (h *hotCounter) router() *doppel.Cluster { return nil }

func (h *hotCounter) closedOp(s *slot, r *rng.Rand) {
	s.kind = opWrite
	s.a = h.hot
	if r.Uint64()&1 == 0 {
		s.a = int32(r.Intn(len(h.keys)))
	}
}

func (h *hotCounter) openOp(s *slot, r *rng.Rand) {
	s.kind = opRead
	s.a = h.hot
}

func (h *hotCounter) body(tx doppel.Tx, s *slot) error {
	if s.kind == opWrite {
		return tx.Add(h.keys[s.a], 1)
	}
	v, err := tx.GetInt(h.keys[s.a])
	s.val = v
	return err
}

func (h *hotCounter) checkRead(s *slot) error {
	if s.val < 0 {
		return fmt.Errorf("hot counter read %d", s.val)
	}
	return nil
}

func (h *hotCounter) close() { h.db.Close() }

// check runs after the drain and before close: the engine counters must
// show a healthy split path, and the hinted key must actually have split
// (two workers never split it on their own, so without that evidence
// the run would quietly measure joined-phase OCC).
func (h *hotCounter) check(w window) []error {
	var errs []error
	st := h.db.Stats()
	if st.MergeFailures != 0 {
		errs = append(errs, fmt.Errorf("MergeFailures = %d", st.MergeFailures))
	}
	if st.StashDropped != 0 {
		errs = append(errs, fmt.Errorf("StashDropped = %d", st.StashDropped))
	}
	if w.delta.phaseChanges == 0 || w.delta.stashed == 0 {
		errs = append(errs, fmt.Errorf("%w: %d phase changes, %d stashed reads in the measured window",
			errNoSplit, w.delta.phaseChanges, w.delta.stashed))
	}
	return errs
}

// post requires the counters to sum to the acknowledged increments.
func (h *hotCounter) post(g *gen) []error {
	var sum int64
	st := h.db.Internal().Store()
	for _, k := range h.keys {
		n, err := recordInt(st, k)
		if err != nil {
			return []error{err}
		}
		sum += n
	}
	if sum != g.ackedWrites {
		return []error{fmt.Errorf("%w: counters sum to %d, %d increments acknowledged", errConservation, sum, g.ackedWrites)}
	}
	return nil
}

var (
	errConservation = errors.New("conservation check failed")
	errNoSplit      = errors.New("the hinted key never split")
)

func (h *hotCounter) directDB() *core.DB {
	st := store.New()
	preloadInts(st, h.keys, 0)
	db := core.Open(st, core.DefaultConfig(2))
	db.SplitHint(h.keys[h.hot], store.OpAdd)
	return db
}
