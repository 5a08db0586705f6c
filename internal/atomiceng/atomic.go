// Package atomiceng implements the paper's "Atomic" baseline: operations
// apply immediately with atomic instructions and no other concurrency
// control (§8.2: "Atomic uses an atomic increment instruction with no
// other concurrency control. Atomic represents an upper bound for locking
// schemes.")
//
// The engine provides per-operation atomicity only: there is no
// transaction isolation, no aborts, and multi-record transactions are not
// serializable. It exists purely as a performance upper bound for the
// INCR microbenchmarks.
package atomiceng

import (
	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
)

// Engine is the Atomic baseline over a shared store.
type Engine struct {
	st      *store.Store
	workers []workerState
}

type workerState struct {
	stats *metrics.TxnStats
	tx    Tx
	_     [40]byte // avoid false sharing
}

// New returns an Atomic engine with the given worker count over st.
func New(st *store.Store, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{st: st, workers: make([]workerState, workers)}
	for i := range e.workers {
		e.workers[i].stats = metrics.NewTxnStats()
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "atomic" }

// Workers implements engine.Engine.
func (e *Engine) Workers() int { return len(e.workers) }

// Poll implements engine.Engine; Atomic has no background duties.
func (e *Engine) Poll(w int) {}

// Stop implements engine.Engine.
func (e *Engine) Stop() {}

// WorkerStats implements engine.Engine.
func (e *Engine) WorkerStats(w int) *metrics.TxnStats { return e.workers[w].stats }

// Store returns the engine's backing store (for preloading).
func (e *Engine) Store() *store.Store { return e.st }

// Attempt implements engine.Engine. Operations have already applied when
// fn returns, so the outcome is Committed unless fn itself failed; a user
// error may leave partial effects (this engine provides no isolation).
func (e *Engine) Attempt(w int, fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	ws := &e.workers[w]
	tx := &ws.tx
	tx.eng, tx.w, tx.wrote = e, w, false
	if err := fn(engine.NewTx(tx)); err != nil {
		ws.stats.Aborted.Add(1)
		return engine.UserAbort, err
	}
	ws.stats.Committed.Add(1)
	lat := engine.Now() - submitNanos
	if tx.wrote {
		ws.stats.WriteLatency.Record(lat)
	} else {
		ws.stats.ReadLatency.Record(lat)
	}
	return engine.Committed, nil
}

// Tx applies every operation immediately with a CAS loop on the record's
// value pointer.
type Tx struct {
	eng   *Engine
	w     int
	wrote bool
}

// WorkerID implements engine.Ops.
func (t *Tx) WorkerID() int { return t.w }

// Read implements engine.Ops: a plain atomic load. forUpdate means
// nothing without locks.
func (t *Tx) Read(key string, _ bool) (*store.Value, error) {
	rec, _ := t.eng.st.GetOrCreate(key)
	return rec.Value(), nil
}

// Write implements engine.Ops: it applies op to key's record at once,
// by compare-and-swap.
func (t *Tx) Write(key string, op store.Op) error {
	op.SetCoreID(t.w)
	rec, _ := t.eng.st.GetOrCreate(key)
	t.wrote = true
	for {
		old := rec.Value()
		nv, err := store.Apply(old, op)
		if err != nil {
			return err
		}
		if rec.CasValue(old, nv) {
			return nil
		}
	}
}

var _ engine.Ops = (*Tx)(nil)
var _ engine.Engine = (*Engine)(nil)
