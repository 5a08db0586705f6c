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
	err := fn(engine.NewTx(tx))
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

// WorkerID implements engine.Ops.
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

// Read implements engine.Ops: it reads a record under a read lock, or
// under the write lock for GetForUpdate, and overlays the transaction's
// buffered writes.
func (t *Tx) Read(key string, forUpdate bool) (*store.Value, error) {
	mode := lockRead
	if forUpdate {
		mode = lockWrite
	}
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

// Write implements engine.Ops: it acquires the write lock and buffers
// op for commit time.
func (t *Tx) Write(key string, op store.Op) error {
	op.SetCoreID(t.w)
	rec, _ := t.eng.st.GetOrCreate(key)
	if err := t.acquire(rec, lockWrite); err != nil {
		return err
	}
	t.wrote = true
	t.wset = append(t.wset, writeEnt{rec, op})
	return nil
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

var _ engine.Ops = (*Tx)(nil)
var _ engine.Engine = (*Engine)(nil)
