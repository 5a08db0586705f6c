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
	if err := fn(tx); err != nil {
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

// WorkerID implements engine.Tx.
func (t *Tx) WorkerID() int { return t.w }

// apply performs op on key's record via compare-and-swap.
func (t *Tx) apply(key string, op store.Op) error {
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

// Get implements engine.Tx: a plain atomic load.
func (t *Tx) Get(key string) (*store.Value, error) {
	rec, _ := t.eng.st.GetOrCreate(key)
	return rec.Value(), nil
}

// GetForUpdate implements engine.Tx; identical to Get (no locking here).
func (t *Tx) GetForUpdate(key string) (*store.Value, error) { return t.Get(key) }

// GetInt implements engine.Tx.
func (t *Tx) GetInt(key string) (int64, error) {
	v, err := t.Get(key)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// GetIntForUpdate implements engine.Tx.
func (t *Tx) GetIntForUpdate(key string) (int64, error) { return t.GetInt(key) }

// GetBytes implements engine.Tx.
func (t *Tx) GetBytes(key string) ([]byte, error) {
	v, err := t.Get(key)
	if err != nil {
		return nil, err
	}
	return v.AsBytes()
}

// GetTuple implements engine.Tx.
func (t *Tx) GetTuple(key string) (store.Tuple, bool, error) {
	v, err := t.Get(key)
	if err != nil {
		return store.Tuple{}, false, err
	}
	return v.AsTuple()
}

// GetTopK implements engine.Tx.
func (t *Tx) GetTopK(key string) ([]store.TopKEntry, error) {
	v, err := t.Get(key)
	if err != nil {
		return nil, err
	}
	tk, err := v.AsTopK()
	if err != nil {
		return nil, err
	}
	return tk.Entries(), nil
}

// Put implements engine.Tx.
func (t *Tx) Put(key string, v *store.Value) error {
	return t.apply(key, store.Op{Kind: store.OpPut, Val: v})
}

// PutInt implements engine.Tx.
func (t *Tx) PutInt(key string, n int64) error { return t.Put(key, store.IntValue(n)) }

// PutBytes implements engine.Tx.
func (t *Tx) PutBytes(key string, b []byte) error { return t.Put(key, store.BytesValue(b)) }

// Add implements engine.Tx.
func (t *Tx) Add(key string, n int64) error {
	return t.apply(key, store.Op{Kind: store.OpAdd, Int: n})
}

// Max implements engine.Tx.
func (t *Tx) Max(key string, n int64) error {
	return t.apply(key, store.Op{Kind: store.OpMax, Int: n})
}

// Min implements engine.Tx.
func (t *Tx) Min(key string, n int64) error {
	return t.apply(key, store.Op{Kind: store.OpMin, Int: n})
}

// Mult implements engine.Tx.
func (t *Tx) Mult(key string, n int64) error {
	return t.apply(key, store.Op{Kind: store.OpMult, Int: n})
}

// OPut implements engine.Tx.
func (t *Tx) OPut(key string, order store.Order, data []byte) error {
	return t.apply(key, store.Op{Kind: store.OpOPut, Tuple: store.Tuple{
		Order: order, CoreID: int32(t.w), Data: data,
	}})
}

// TopKInsert implements engine.Tx.
func (t *Tx) TopKInsert(key string, order int64, data []byte, k int) error {
	return t.apply(key, store.Op{Kind: store.OpTopKInsert, K: k, Entry: store.TopKEntry{
		Order: order, CoreID: int32(t.w), Data: data,
	}})
}

var _ engine.Tx = (*Tx)(nil)
var _ engine.Engine = (*Engine)(nil)
