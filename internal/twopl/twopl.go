// Package twopl implements the paper's 2PL baseline: strict two-phase
// locking over per-record Go read-write mutexes (§8.1: "2PL uses Go's
// read-write mutexes", "2PL never aborts").
//
// Transactions acquire locks as they access records and hold them until
// commit. Because the engine never aborts on conflict, callers are
// responsible for two disciplines, both satisfied by every workload in
// this repository and checked by tests:
//
//   - records must be accessed in a consistent global order across
//     transaction types, so lock waits cannot form cycles;
//   - a transaction that reads a record it will later write must use
//     GetForUpdate for the read. A plain Get followed by a write to the
//     same key would require a read→write lock upgrade, which can
//     deadlock two upgraders; the engine rejects it with ErrUnsupported
//     instead.
package twopl

import (
	"fmt"

	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
)

// Engine is a strict 2PL engine over a shared store.
type Engine struct {
	st      *store.Store
	workers []workerState
}

type workerState struct {
	stats *metrics.TxnStats
	tx    Tx
	_     [32]byte // avoid false sharing
}

// New returns a 2PL engine with the given worker count over st.
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
func (e *Engine) Name() string { return "2pl" }

// Workers implements engine.Engine.
func (e *Engine) Workers() int { return len(e.workers) }

// Poll implements engine.Engine; 2PL has no background duties.
func (e *Engine) Poll(w int) {}

// Stop implements engine.Engine.
func (e *Engine) Stop() {}

// WorkerStats implements engine.Engine.
func (e *Engine) WorkerStats(w int) *metrics.TxnStats { return e.workers[w].stats }

// Store returns the engine's backing store (for preloading).
func (e *Engine) Store() *store.Store { return e.st }

// Attempt implements engine.Engine. 2PL transactions never abort on
// conflict; the only non-committed outcome is a user error, which
// releases all locks with no effects applied.
func (e *Engine) Attempt(w int, fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	ws := &e.workers[w]
	tx := &ws.tx
	tx.reset(e, w)
	err := fn(tx)
	if err != nil {
		tx.releaseAll()
		ws.stats.Aborted.Add(1)
		return engine.UserAbort, err
	}
	if err := tx.commit(); err != nil {
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

// lockMode records how a transaction holds a record.
type lockMode uint8

const (
	lockRead lockMode = iota
	lockWrite
)

// heldLock is one lock owned by an in-flight transaction.
type heldLock struct {
	rec  *store.Record
	mode lockMode
}

// Tx is one 2PL transaction execution.
type Tx struct {
	eng   *Engine
	w     int
	held  []heldLock
	wset  []writeEnt
	wrote bool
}

type writeEnt struct {
	rec *store.Record
	op  store.Op
}

func (t *Tx) reset(e *Engine, w int) {
	t.eng = e
	t.w = w
	t.held = t.held[:0]
	t.wset = t.wset[:0]
	t.wrote = false
}

// WorkerID implements engine.Tx.
func (t *Tx) WorkerID() int { return t.w }

// holding returns the lock entry for rec, or -1.
func (t *Tx) holding(rec *store.Record) int {
	for i := range t.held {
		if t.held[i].rec == rec {
			return i
		}
	}
	return -1
}

// acquire takes rec in the requested mode, growing the transaction's lock
// set. It reports ErrUnsupported on a read→write upgrade.
func (t *Tx) acquire(rec *store.Record, mode lockMode) error {
	if i := t.holding(rec); i >= 0 {
		if t.held[i].mode == lockWrite || mode == lockRead {
			return nil // already held strongly enough
		}
		return fmt.Errorf("%w: 2PL read-to-write lock upgrade; use GetForUpdate", engine.ErrUnsupported)
	}
	if mode == lockWrite {
		rec.RWMutex().Lock()
	} else {
		rec.RWMutex().RLock()
	}
	t.held = append(t.held, heldLock{rec, mode})
	return nil
}

// releaseAll drops every held lock (end of the shrink phase).
func (t *Tx) releaseAll() {
	for i := range t.held {
		if t.held[i].mode == lockWrite {
			t.held[i].rec.RWMutex().Unlock()
		} else {
			t.held[i].rec.RWMutex().RUnlock()
		}
	}
	t.held = t.held[:0]
}

// load reads a record under the requested lock mode and overlays the
// transaction's buffered writes.
func (t *Tx) load(key string, mode lockMode) (*store.Value, error) {
	rec, _ := t.eng.st.GetOrCreate(key)
	if err := t.acquire(rec, mode); err != nil {
		return nil, err
	}
	v := rec.Value()
	for i := range t.wset {
		if t.wset[i].rec == rec {
			var err error
			v, err = store.Apply(v, t.wset[i].op)
			if err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// Get implements engine.Tx.
func (t *Tx) Get(key string) (*store.Value, error) { return t.load(key, lockRead) }

// GetForUpdate implements engine.Tx: it takes the write lock immediately.
func (t *Tx) GetForUpdate(key string) (*store.Value, error) { return t.load(key, lockWrite) }

// GetInt implements engine.Tx.
func (t *Tx) GetInt(key string) (int64, error) {
	v, err := t.load(key, lockRead)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// GetIntForUpdate implements engine.Tx.
func (t *Tx) GetIntForUpdate(key string) (int64, error) {
	v, err := t.load(key, lockWrite)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// GetBytes implements engine.Tx.
func (t *Tx) GetBytes(key string) ([]byte, error) {
	v, err := t.load(key, lockRead)
	if err != nil {
		return nil, err
	}
	return v.AsBytes()
}

// GetTuple implements engine.Tx.
func (t *Tx) GetTuple(key string) (store.Tuple, bool, error) {
	v, err := t.load(key, lockRead)
	if err != nil {
		return store.Tuple{}, false, err
	}
	return v.AsTuple()
}

// GetTopK implements engine.Tx.
func (t *Tx) GetTopK(key string) ([]store.TopKEntry, error) {
	v, err := t.load(key, lockRead)
	if err != nil {
		return nil, err
	}
	tk, err := v.AsTopK()
	if err != nil {
		return nil, err
	}
	return tk.Entries(), nil
}

// write acquires the write lock and buffers op for commit time.
func (t *Tx) write(key string, op store.Op) error {
	rec, _ := t.eng.st.GetOrCreate(key)
	if err := t.acquire(rec, lockWrite); err != nil {
		return err
	}
	t.wrote = true
	t.wset = append(t.wset, writeEnt{rec, op})
	return nil
}

// Put implements engine.Tx.
func (t *Tx) Put(key string, v *store.Value) error {
	return t.write(key, store.Op{Kind: store.OpPut, Val: v})
}

// PutInt implements engine.Tx.
func (t *Tx) PutInt(key string, n int64) error { return t.Put(key, store.IntValue(n)) }

// PutBytes implements engine.Tx.
func (t *Tx) PutBytes(key string, b []byte) error { return t.Put(key, store.BytesValue(b)) }

// Add implements engine.Tx.
func (t *Tx) Add(key string, n int64) error {
	return t.write(key, store.Op{Kind: store.OpAdd, Int: n})
}

// Max implements engine.Tx.
func (t *Tx) Max(key string, n int64) error {
	return t.write(key, store.Op{Kind: store.OpMax, Int: n})
}

// Min implements engine.Tx.
func (t *Tx) Min(key string, n int64) error {
	return t.write(key, store.Op{Kind: store.OpMin, Int: n})
}

// Mult implements engine.Tx.
func (t *Tx) Mult(key string, n int64) error {
	return t.write(key, store.Op{Kind: store.OpMult, Int: n})
}

// OPut implements engine.Tx.
func (t *Tx) OPut(key string, order store.Order, data []byte) error {
	return t.write(key, store.Op{Kind: store.OpOPut, Tuple: store.Tuple{
		Order: order, CoreID: int32(t.w), Data: data,
	}})
}

// TopKInsert implements engine.Tx.
func (t *Tx) TopKInsert(key string, order int64, data []byte, k int) error {
	return t.write(key, store.Op{Kind: store.OpTopKInsert, K: k, Entry: store.TopKEntry{
		Order: order, CoreID: int32(t.w), Data: data,
	}})
}

// commit applies the buffered writes under the held write locks and
// releases everything. New values are fully computed before any is
// installed, so apply-time type errors leave no partial effects.
func (t *Tx) commit() error {
	defer t.releaseAll()
	type pending struct {
		rec *store.Record
		val *store.Value
	}
	pend := make([]pending, 0, len(t.wset))
	for i := range t.wset {
		rec := t.wset[i].rec
		// Start from the latest pending value for this record, if any.
		v := rec.Value()
		for j := range pend {
			if pend[j].rec == rec {
				v = pend[j].val
			}
		}
		nv, err := store.Apply(v, t.wset[i].op)
		if err != nil {
			return err
		}
		replaced := false
		for j := range pend {
			if pend[j].rec == rec {
				pend[j].val = nv
				replaced = true
				break
			}
		}
		if !replaced {
			pend = append(pend, pending{rec, nv})
		}
	}
	for _, p := range pend {
		p.rec.SetValue(p.val)
	}
	return nil
}

var _ engine.Tx = (*Tx)(nil)
var _ engine.Engine = (*Engine)(nil)
