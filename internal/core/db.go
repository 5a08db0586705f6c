package core

import (
	"sync"
	"sync/atomic"
	"time"

	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
)

// Phase identifies the database's current global phase. Reconciliation is
// not a steady state: it happens inside the split→joined transition, per
// worker, between noticing the transition and acknowledging it (§5.3).
type Phase int32

// Phases.
const (
	PhaseJoined Phase = iota
	PhaseSplit
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == PhaseSplit {
		return "split"
	}
	return "joined"
}

// transition is one in-flight phase change. The coordinator publishes it;
// workers notice it between transactions, perform their pre-transition
// duty (reconcile slices when leaving a split phase), and acknowledge.
// The last acknowledger installs the new phase and releases everyone
// (§5.4).
type transition struct {
	target   Phase
	epoch    uint64
	nextSet  *splitSet // split set to install when target == PhaseSplit
	barrier  func()    // checkpoint cut, run by the last acknowledger
	acks     atomic.Int32
	total    int32
	released chan struct{}
}

// DB is a Doppel database instance.
type DB struct {
	st  *store.Store
	cfg Config

	phase      atomic.Int32
	phaseEpoch atomic.Uint64
	inflight   atomic.Pointer[transition]
	split      atomic.Pointer[splitSet]
	// pubMu serializes transition publication (coordinator, test hooks
	// and checkpoint barriers). While it is held and inflight is nil, no
	// transition can complete, so phaseEpoch cannot move between reading
	// it and CASing the new transition in — without this, a second
	// publisher could install a transition whose epoch the workers have
	// already acknowledged, which would never complete.
	pubMu sync.Mutex

	workers []*Worker

	// classifier state (coordinator-side master copy)
	classMu   sync.Mutex
	curAssign map[string]store.OpKind // current split assignment
	hints     map[string]store.OpKind // manual labels (§5.5)
	lastSplit map[string]bool         // keys that went through the last split phase

	// phase accounting
	extends      int // consecutive split-phase extensions (coordinator only)
	phaseChanges atomic.Uint64
	splitPhases  atomic.Uint64
	phaseStartNs atomic.Int64 // engine.Now() at the current phase's start (monotonic)

	stop    chan struct{}
	coordWG sync.WaitGroup
	closed  bool
}

// Open returns a running Doppel instance over st. If cfg.PhaseLength is
// non-zero a coordinator goroutine cycles phases; otherwise phases move
// only via test hooks and Close.
func Open(st *store.Store, cfg Config) *DB {
	cfg = cfg.withDefaults()
	db := &DB{
		st:        st,
		cfg:       cfg,
		curAssign: map[string]store.OpKind{},
		hints:     map[string]store.OpKind{},
		lastSplit: map[string]bool{},
		stop:      make(chan struct{}),
	}
	db.split.Store(emptySplitSet)
	db.workers = make([]*Worker, cfg.Workers)
	for i := range db.workers {
		db.workers[i] = newWorker(db, i)
	}
	db.phaseStartNs.Store(engine.Now())
	if cfg.PhaseLength > 0 {
		db.coordWG.Add(1)
		go db.coordinate()
	}
	return db
}

// Store returns the backing store.
func (db *DB) Store() *store.Store { return db.st }

// Name implements engine.Engine.
func (db *DB) Name() string { return "doppel" }

// Workers implements engine.Engine.
func (db *DB) Workers() int { return len(db.workers) }

// WorkerStats implements engine.Engine.
func (db *DB) WorkerStats(w int) *metrics.TxnStats { return db.workers[w].stats }

// Attempt implements engine.Engine.
func (db *DB) Attempt(w int, fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	return db.workers[w].attempt(fn, submitNanos)
}

// Poll implements engine.Engine: the worker participates in any pending
// phase transition and retries stashed transactions if a joined phase
// has begun.
func (db *DB) Poll(w int) { db.workers[w].poll() }

// Wake returns worker w's wake channel. It holds at most one token; a
// token is left in it after every change of state the worker's driver
// may be waiting for: a transition published (beginTransition,
// RequestBarrier), a transition completed (completeTransition), and
// commit fences released (WakeAll, called by the cluster router). A
// driver with nothing to run blocks on its request source and this
// channel, calls Poll when woken, and retries whatever it holds back.
// See doc.go for the full contract.
func (db *DB) Wake(w int) <-chan struct{} { return db.workers[w].wake }

// WakeAll leaves a wakeup for every worker. Callers outside the engine
// use it after a change the engine cannot see, such as the cluster
// router releasing its commit fences.
func (db *DB) WakeAll() {
	for _, w := range db.workers {
		w.notify()
	}
}

// Phase returns the current global phase.
func (db *DB) Phase() Phase { return Phase(db.phase.Load()) }

// SplitActive reports whether key is split data in the phase running
// right now: during a split phase, workers apply the key's selected
// operation to invisible per-core slices, so the global record does not
// reflect committed state. The cluster router's cross-shard prepare
// checks this after fencing — a fenced-but-split key must be treated as
// stale and retried, because reconciliation merges slices without fence
// checks.
//
// The read takes pubMu, making it atomic against split-set publication
// in completeTransition. Combined with the publication-time fence
// filter there, a prepare that fenced its keys before calling this is
// guaranteed one of two outcomes: the publisher saw the fence and kept
// the key out of the split set, or this check sees the key split and
// the prepare retries. Only the cross-shard path calls this, so the
// lock is off the single-shard fast path entirely.
func (db *DB) SplitActive(key string) bool {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	return db.Phase() == PhaseSplit && db.split.Load().lookup(key) != nil
}

// SplitKeys returns the keys currently assigned as split data (the
// paper's Table 2 reports this count). The assignment persists across
// phase cycles until the classifier demotes a key.
func (db *DB) SplitKeys() []string {
	db.classMu.Lock()
	defer db.classMu.Unlock()
	out := make([]string, 0, len(db.curAssign))
	for k := range db.curAssign {
		out = append(out, k)
	}
	return out
}

// PhaseChanges returns how many phase transitions have completed.
func (db *DB) PhaseChanges() uint64 { return db.phaseChanges.Load() }

// StashLen reports how many transactions worker w currently has stashed
// awaiting the next joined phase. It must be called from the goroutine
// that drives worker w.
func (db *DB) StashLen(w int) int { return len(db.workers[w].stash) }

// RedoLSN reports the log sequence number of worker w's newest redo
// append — what a caller that wants commit-then-durable semantics must
// WaitDurable on after Attempt returns Committed. It is the max-LSN
// sentinel when the worker's last append was refused by a terminally
// failed logger (waiting on it reports the terminal error), and 0 when
// the worker has never logged. Like StashLen it must be called from
// the goroutine that drives worker w.
func (db *DB) RedoLSN(w int) uint64 { return db.workers[w].redoLSN }

// SliceRedoPending reports whether worker w has committed split-phase
// slice writes whose redo records have not been appended yet (they are
// logged when the worker reconciles its slices at the next phase
// transition). While it is true, RedoLSN does not cover the worker's
// newest commit; durability-synchronous callers wait on the worker's
// wake channel and Poll until it clears. Must be called from the
// goroutine that drives worker w.
func (db *DB) SliceRedoPending(w int) bool { return db.workers[w].slicedRedo }

// SplitHint manually labels key as split data for op ("this record should
// be split for this operation", §5.5). It takes effect at the next
// joined→split transition. Non-splittable operations are ignored.
func (db *DB) SplitHint(key string, op store.OpKind) {
	if !op.Splittable() {
		return
	}
	db.classMu.Lock()
	db.hints[key] = op
	db.classMu.Unlock()
}

// ClearSplitHint removes a manual label.
func (db *DB) ClearSplitHint(key string) {
	db.classMu.Lock()
	delete(db.hints, key)
	db.classMu.Unlock()
}

// beginTransition publishes a transition toward target. It returns false
// when one is already in flight or the database is already in target.
func (db *DB) beginTransition(target Phase, nextSet *splitSet) bool {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	if db.inflight.Load() != nil || db.Phase() == target {
		return false
	}
	tr := &transition{
		target:   target,
		epoch:    db.phaseEpoch.Load() + 1,
		nextSet:  nextSet,
		total:    int32(len(db.workers)),
		released: make(chan struct{}),
	}
	// Publish; workers observe it in checkPhase.
	if !db.inflight.CompareAndSwap(nil, tr) {
		return false
	}
	db.WakeAll()
	return true
}

// completeTransition is called by the final acknowledging worker: it
// installs the new phase and split set, clears the in-flight pointer and
// releases all waiting workers. If the transition carries a barrier
// function it runs first, at the one point where every worker is paused
// between transactions and all reconciliation duties have completed —
// the quiesced boundary checkpoints cut at.
func (db *DB) completeTransition(tr *transition) {
	if tr.barrier != nil {
		tr.barrier()
	}
	// Publication happens under pubMu so it is atomic against the
	// router's SplitActive check: a cross-shard prepare installs its
	// fences and then reads phase+split inside one pubMu critical
	// section, so the fence re-check below (withoutFenced) either sees
	// the fence and drops the key, or the prepare's check runs after
	// this store and sees the key split — never neither. The barrier
	// runs outside the lock: it is a checkpoint cut that may take WAL
	// locks, and publication order does not depend on it.
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	// A joined→joined barrier is a checkpoint cut, not a phase change:
	// leave the phase clock and change counter alone, or frequent
	// checkpoints would keep resetting the coordinator's "joined phase
	// long enough?" timer and starve split phases entirely.
	noop := tr.target == Phase(db.phase.Load())
	if tr.target == PhaseSplit {
		db.split.Store(tr.nextSet.withoutFenced())
		db.splitPhases.Add(1)
	} else {
		db.split.Store(emptySplitSet)
	}
	db.phase.Store(int32(tr.target))
	db.phaseEpoch.Store(tr.epoch)
	if !noop {
		db.phaseChanges.Add(1)
		db.phaseStartNs.Store(engine.Now())
	}
	db.inflight.Store(nil)
	close(tr.released)
	db.WakeAll()
}

// coordinate is the coordinator loop: it proposes a phase change every
// PhaseLength, skips split phases with no candidates ("the coordinator
// delays the next split phase", §5.4), and hurries the joined phase when
// stashes pile up.
func (db *DB) coordinate() {
	defer db.coordWG.Done()
	tick := db.cfg.PhaseLength / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	timer := time.NewTicker(tick)
	defer timer.Stop()
	for {
		select {
		case <-db.stop:
			return
		case <-timer.C:
		}
		if db.inflight.Load() != nil {
			continue
		}
		elapsed := time.Duration(engine.Now() - db.phaseStartNs.Load())
		switch db.Phase() {
		case PhaseJoined:
			if elapsed < db.cfg.PhaseLength {
				continue
			}
			set := db.decideNextSplit()
			if set.size() == 0 {
				// Nothing worth splitting: stay joined, reset the timer
				// so classifier windows stay one phase long.
				db.phaseStartNs.Store(engine.Now())
				continue
			}
			db.beginTransition(PhaseSplit, set)
		case PhaseSplit:
			var commits, stashes, sliceWrites uint64
			for _, w := range db.workers {
				commits += w.commitsPhase.Load()
				stashes += w.stashedPhase.Load()
				sliceWrites += w.sliceWritesPhase.Load()
			}
			hurry := commits+stashes > 0 &&
				float64(stashes) > db.cfg.HurryFraction*float64(commits+stashes)
			if elapsed < db.cfg.PhaseLength && !hurry {
				continue
			}
			// A split phase with no stashed transactions has nothing
			// waiting on a joined phase; extend it rather than pay a
			// barrier, up to MaxSplitExtend times.
			if stashes == 0 && sliceWrites > uint64(db.cfg.KeepMinWrites) &&
				db.extends < db.cfg.MaxSplitExtend {
				db.extends++
				for _, w := range db.workers {
					w.sliceWritesPhase.Store(0)
				}
				db.phaseStartNs.Store(engine.Now())
				continue
			}
			db.extends = 0
			db.beginTransition(PhaseJoined, nil)
		}
	}
}

// RequestSplitPhase runs the classifier and proposes a transition to a
// split phase, exactly as the coordinator would. It returns false when a
// transition is already in flight, the database is already split, or the
// classifier found nothing to split. Workers complete the transition as
// they poll. Intended for tests and deterministic benchmarks
// (cfg.PhaseLength == 0 disables the coordinator).
func (db *DB) RequestSplitPhase() bool {
	if db.inflight.Load() != nil || db.Phase() == PhaseSplit {
		return false
	}
	set := db.decideNextSplit()
	if set.size() == 0 {
		return false
	}
	return db.beginTransition(PhaseSplit, set)
}

// RequestJoinedPhase proposes a transition back to a joined phase; see
// RequestSplitPhase.
func (db *DB) RequestJoinedPhase() bool {
	return db.beginTransition(PhaseJoined, nil)
}

// RequestBarrier proposes a transition to a joined phase that runs fn at
// the quiesced boundary: after every worker has stopped between
// transactions and reconciled its slices (when leaving a split phase),
// and before any worker resumes. fn runs exactly once, on the last
// acknowledging worker's goroutine (or inside Close's quiesce), and must
// be brief — every worker is stalled until it returns.
//
// Unlike beginTransition this may target the phase the database is
// already in: a joined→joined barrier is the checkpoint cut for an
// uncontended database. It returns nil once the barrier is published.
// While another transition is in flight it publishes nothing and
// returns that transition's release channel, which closes when the
// transition completes; the caller waits on it and tries again. Workers
// must be polled for either transition to complete.
func (db *DB) RequestBarrier(fn func()) (busy <-chan struct{}) {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	if tr := db.inflight.Load(); tr != nil {
		return tr.released
	}
	// Every publisher holds pubMu, so with inflight nil here no other
	// transition can be installed before this one.
	db.inflight.Store(&transition{
		target:   PhaseJoined,
		epoch:    db.phaseEpoch.Load() + 1,
		barrier:  fn,
		total:    int32(len(db.workers)),
		released: make(chan struct{}),
	})
	db.WakeAll()
	return nil
}

// Close stops the coordinator, completes any in-flight transition on
// behalf of stopped workers, reconciles all outstanding per-core slices
// into the global store, and retries stashed transactions so their
// effects are not lost. After Close the store reflects every committed
// transaction. Workers' driving goroutines must have stopped before
// Close is called.
func (db *DB) Close() {
	if db.closed {
		return
	}
	db.closed = true
	close(db.stop)
	db.coordWG.Wait()
	db.quiesce()
}

// Stop implements engine.Engine.
func (db *DB) Stop() { db.Close() }

// quiesce drives the database to a fully reconciled joined phase, acting
// on behalf of the (stopped) workers.
func (db *DB) quiesce() {
	// Complete an in-flight transition.
	if tr := db.inflight.Load(); tr != nil {
		for _, w := range db.workers {
			if w.ackedEpoch < tr.epoch {
				w.transitionDuty(tr)
				w.ackedEpoch = tr.epoch
				if tr.acks.Add(1) == tr.total {
					db.completeTransition(tr)
				}
			}
		}
	}
	// If we ended up in (or already were in) a split phase, reconcile
	// everything back.
	if db.Phase() == PhaseSplit {
		if db.beginTransition(PhaseJoined, nil) {
			tr := db.inflight.Load()
			for _, w := range db.workers {
				w.transitionDuty(tr)
				w.ackedEpoch = tr.epoch
				if tr.acks.Add(1) == tr.total {
					db.completeTransition(tr)
				}
			}
		}
	}
	// Joined phase now: drain every worker's stash.
	for _, w := range db.workers {
		w.drainStash()
	}
}

var _ engine.Engine = (*DB)(nil)
