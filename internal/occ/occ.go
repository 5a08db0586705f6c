// Package occ implements the paper's OCC baseline: Silo-style optimistic
// concurrency control (§5.1, Figure 2). Transactions buffer writes and
// record read TIDs during execution; at commit they lock the write set in
// a global order, validate the read set, apply buffered operations and
// install a new TID. A transaction that observes a locked record or fails
// validation aborts, to be retried later by the caller.
//
// Doppel's joined phase embeds this same protocol; keeping a standalone
// engine gives the benchmarks an OCC measurement in the same framework
// (§8.1).
package occ

import (
	"errors"

	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
)

// readSpins bounds how long a read waits for a locked record before the
// transaction gives up and aborts.
const readSpins = 128

// Engine is an OCC engine over a shared store.
type Engine struct {
	st      *store.Store
	workers []workerState
}

type workerState struct {
	stats   *metrics.TxnStats
	lastSeq uint64
	tx      Tx
	_       [24]byte // avoid false sharing between worker states
}

// New returns an OCC engine with the given worker count over st.
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
func (e *Engine) Name() string { return "occ" }

// Workers implements engine.Engine.
func (e *Engine) Workers() int { return len(e.workers) }

// Poll implements engine.Engine; OCC has no background duties.
func (e *Engine) Poll(w int) {}

// Stop implements engine.Engine; OCC holds no resources.
func (e *Engine) Stop() {}

// WorkerStats implements engine.Engine.
func (e *Engine) WorkerStats(w int) *metrics.TxnStats { return e.workers[w].stats }

// Store returns the engine's backing store (for preloading).
func (e *Engine) Store() *store.Store { return e.st }

// Attempt implements engine.Engine.
func (e *Engine) Attempt(w int, fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	ws := &e.workers[w]
	tx := &ws.tx
	tx.reset(e, w)
	err := fn(engine.NewTx(tx))
	var out engine.Outcome
	switch {
	case errors.Is(err, engine.ErrAbort):
		out = engine.Aborted
	case err != nil:
		ws.stats.Aborted.Add(1) // count it, but surface the user error
		return engine.UserAbort, err
	default:
		out, err = tx.commit()
		if err != nil {
			return engine.UserAbort, err
		}
	}
	switch out {
	case engine.Committed:
		ws.stats.Committed.Add(1)
		lat := engine.Now() - submitNanos
		if tx.wrote {
			ws.stats.WriteLatency.Record(lat)
		} else {
			ws.stats.ReadLatency.Record(lat)
		}
	case engine.Aborted:
		ws.stats.Aborted.Add(1)
	}
	return out, nil
}
