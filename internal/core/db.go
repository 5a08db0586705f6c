package core

import (
	"math"
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
	// unlockWaiters counts workers whose awaitsUnlock is set, so a
	// commit checks one word when nobody waits.
	unlockWaiters atomic.Int32

	// classifier state (coordinator-side master copy), guarded by classMu
	classMu   sync.Mutex
	curAssign map[string]store.OpKind // current split assignment
	hints     map[string]store.OpKind // manual labels (§5.5)
	lastSplit map[string]bool         // keys that went through the last split phase
	class     classScratch            // reused aggregation maps and the last split set

	// phase accounting
	phaseChanges atomic.Uint64
	splitPhases  atomic.Uint64
	phaseStartNs atomic.Int64 // engine.Now() at the current phase's start (monotonic)
	splitNs      atomic.Int64 // split time the classifier has not yet accounted for

	// The coordinator (see advance). firstStashNs is the engine.Now()
	// stamp of the current split phase's first stash, 0 until one. dueNs
	// is when the next step is due (math.MaxInt64 for never), which
	// workers compare with the clock they read at every commit.
	coordinated  bool          // a coordinator runs: PhaseLength > 0 at Open
	kick         chan struct{} // one slot; see kickCoordinator
	firstStashNs atomic.Int64
	dueNs        atomic.Int64
	coordMu      sync.Mutex    // serializes steps; guards the four fields below
	halted       bool          // StopPhases ran: no step proposes anything
	extends      int           // extensions of the current split phase
	extendsEpoch uint64        // the phase epoch extends counts for
	splitRan     time.Duration // how long the last split phase ran; 0 when the joined phase followed none

	stop    chan struct{}
	coordWG sync.WaitGroup
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
		class:     newClassScratch(),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	db.split.Store(emptySplitSet)
	db.workers = make([]*Worker, cfg.Workers)
	for i := range db.workers {
		db.workers[i] = newWorker(db, i)
	}
	db.phaseStartNs.Store(engine.Now())
	db.dueNs.Store(math.MaxInt64)
	if cfg.PhaseLength > 0 {
		db.coordinated = true
		db.dueNs.Store(engine.Now() + int64(cfg.PhaseLength))
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

// Attempt implements engine.Engine. It is Run without a completion: a
// transaction that stashes is replayed in the next joined phase with
// its outcome dropped, and a fence abort is returned to the caller.
func (db *DB) Attempt(w int, fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	return db.workers[w].attempt(fn, submitNanos, nil)
}

// Run submits fn on worker w for a request whose outcome goes to done,
// exactly once. It reports whether fn ran. false means a transition is
// in flight: the caller waits on Wake(w), Polls and calls Run again.
// Otherwise the engine owns the request. It has completed done, or it
// holds the request and completes it later from Poll or Close: parked
// after a conflict or a commit fence until a wake, stashed until the
// next joined phase, or, under Config.SyncCommit, committed but not yet
// durable. See doc.go's "Held requests".
func (db *DB) Run(w int, fn engine.TxFunc, submitNanos int64, done Completion) bool {
	out, _ := db.workers[w].attempt(fn, submitNanos, done)
	return out != engine.Paused
}

// Poll implements engine.Engine: the worker participates in any pending
// phase transition (replaying its stash on entering a joined phase),
// retries its parked requests and completes acknowledgements the redo
// log now covers.
func (db *DB) Poll(w int) { db.workers[w].poll() }

// Wake returns worker w's wake channel. It holds at most one token; a
// token is left in it after every change of state the worker's driver
// may be waiting for: a transition published (beginTransition,
// RequestBarrier), a transition completed (completeTransition), and
// commit fences released (WakeAll, called by the cluster router). A
// driver with nothing to run blocks on its request source and this
// channel, and calls Poll when woken. See doc.go for the full contract.
func (db *DB) Wake(w int) <-chan struct{} { return db.workers[w].wake }

// WakeAll leaves a wakeup for every worker. Callers outside the engine
// use it after a change the engine cannot see, such as the cluster
// router releasing its commit fences.
func (db *DB) WakeAll() {
	for _, w := range db.workers {
		w.notify()
	}
}

// wakeUnlockWaiters wakes the peers of committer that wait for a record
// to be unlocked: its commit has released its locks. The waiter saw the
// record locked by another transaction, so committer's own wait is never
// for a lock it released.
func (db *DB) wakeUnlockWaiters(committer *Worker) {
	for _, w := range db.workers {
		if w != committer && w.awaitsUnlock.Swap(false) {
			db.unlockWaiters.Add(-1)
			w.notify()
		}
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

// StashLen reports how many transactions worker w holds for a later
// run: stashed ones awaiting the next joined phase and parked ones
// awaiting a wake. It must be called from the goroutine that drives
// worker w.
func (db *DB) StashLen(w int) int { return len(db.workers[w].stash) + len(db.workers[w].parked) }

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
	from, now := Phase(db.phase.Load()), engine.Now()
	if tr.target == PhaseSplit {
		db.split.Store(tr.nextSet.withoutFenced())
		db.splitPhases.Add(1)
	} else {
		db.split.Store(emptySplitSet)
	}
	if tr.target != from {
		if from == PhaseSplit {
			db.splitNs.Add(now - db.phaseStartNs.Load())
		}
		// No worker executes until tr.released closes below, so no
		// stash of the new phase can precede this reset.
		db.firstStashNs.Store(0)
		db.phaseChanges.Add(1)
		db.phaseStartNs.Store(now)
	}
	if db.coordinated {
		// The next step computes the new phase's deadline: it is due now.
		db.dueNs.Store(now)
	}
	db.phase.Store(int32(tr.target))
	db.phaseEpoch.Store(tr.epoch)
	db.inflight.Store(nil)
	close(tr.released)
	db.WakeAll()
	db.kickCoordinator()
}

// kickCoordinator leaves a wakeup for the coordinator without blocking.
// Like a worker's wake channel, the one slot carries no data: the
// coordinator re-reads all phase state after taking it, so a send that
// finds the slot full is covered by the token already there.
func (db *DB) kickCoordinator() {
	select {
	case db.kick <- struct{}{}:
	default:
	}
}

// noteStash starts the current split phase's StashBudget clock at its
// first stash: the deadline moves up to the stash's age reaching the
// budget. Later stashes of the phase cost one atomic load.
func (db *DB) noteStash() {
	if db.firstStashNs.Load() != 0 {
		return
	}
	now := engine.Now()
	if !db.firstStashNs.CompareAndSwap(0, now) || !db.coordinated {
		return
	}
	db.dueBy(now + int64(db.cfg.StashBudget))
	db.kickCoordinator() // to re-arm its timer
}

// dueBy moves the next step's deadline up to t if it is later.
func (db *DB) dueBy(t int64) {
	for due := db.dueNs.Load(); t < due && !db.dueNs.CompareAndSwap(due, t); due = db.dueNs.Load() {
	}
}

// checkDue is called with the clock a worker read at commit. The first
// worker to see the step come due takes it. While every processor runs
// a worker that never blocks, the runtime runs the coordinator's timer,
// and a goroutine a kick readied, only at the next preemption, which
// can be milliseconds late: as long as the whole stash budget.
func (db *DB) checkDue(now int64) {
	if due := db.dueNs.Load(); now >= due && db.dueNs.CompareAndSwap(due, math.MaxInt64) {
		// The coordinator's timer is armed for this same deadline, so it
		// fires and re-arms without a kick.
		db.advance(now)
	}
}

// advance takes the coordinator's step at now and publishes when the
// next one is due. The coordinator calls it on its timer and kicks; a
// worker calls it when it commits after the step came due (checkDue).
func (db *DB) advance(now int64) time.Duration {
	db.coordMu.Lock()
	defer db.coordMu.Unlock()
	if db.halted {
		return 0
	}
	wait := db.step(now)
	if wait <= 0 {
		db.dueNs.Store(math.MaxInt64)
		return wait
	}
	db.dueNs.Store(now + int64(wait))
	// A first stash that landed after step read firstStashNs may have
	// moved the deadline up just before the store above; restore it.
	if first := db.firstStashNs.Load(); first != 0 {
		db.dueBy(first + int64(db.cfg.StashBudget))
	}
	return wait
}

// coordinate is the coordinator loop (§5.4). It sleeps until something
// can change its decision — stop, a kick (a split phase's first stash,
// a completed transition, a step a worker took), or its one timer
// reaching the next deadline — and then takes a step. No ticker polls
// it.
func (db *DB) coordinate() {
	defer db.coordWG.Done()
	timer := time.NewTimer(db.cfg.PhaseLength)
	defer timer.Stop()
	for {
		select {
		case <-db.stop:
			return
		case <-db.kick:
		case <-timer.C:
		}
		// Since Go 1.23 Reset and Stop discard a pending expiry, so the
		// reused timer never delivers a stale deadline.
		if wait := db.advance(engine.Now()); wait > 0 {
			timer.Reset(wait)
		} else {
			timer.Stop()
		}
	}
}

// step proposes the phase change due at now, if any, and returns how
// long until the current phase's next deadline; 0 means there is none
// and only a kick can change the decision (a transition is in flight,
// and its completion kicks).
//
// A joined phase lasts PhaseLength, or no longer than the last split
// phase that absorbed slice writes: a split phase cut short by the
// stash budget is followed by an equally short joined phase, which
// keeps the split share of time where full-length phases put it. A
// joined phase with nothing to split restarts its clock ("the
// coordinator delays the next split phase").
//
// A split phase ends StashBudget after its first stash, or PhaseLength
// after it began if earlier. If it has absorbed no slice write by the
// time someone stashes, it batches nothing the wait would pay for and
// ends at once. One that stashed nothing has no one waiting for a
// joined phase; while it keeps absorbing slice writes it is extended by
// PhaseLength, up to MaxSplitExtend times, rather than pay a barrier.
func (db *DB) step(now int64) time.Duration {
	if db.inflight.Load() != nil {
		return 0
	}
	start := db.phaseStartNs.Load()
	switch db.Phase() {
	case PhaseJoined:
		length := db.cfg.PhaseLength
		if db.splitRan > 0 {
			length = min(length, db.splitRan)
		}
		if elapsed := time.Duration(now - start); elapsed < length {
			return length - elapsed
		}
		set := db.decideNextSplit()
		if set.size() == 0 {
			db.splitRan = 0
			db.phaseStartNs.Store(engine.Now())
			return db.cfg.PhaseLength
		}
		db.beginTransition(PhaseSplit, set)
		return 0
	default:
		if ep := db.phaseEpoch.Load(); ep != db.extendsEpoch {
			db.extendsEpoch, db.extends = ep, 0
		}
		var sliceWrites uint64
		for _, w := range db.workers {
			sliceWrites += w.sliceWritesPhase.Load()
		}
		absorbed := sliceWrites > 0 || db.extends > 0
		deadline := start + int64(db.extends+1)*int64(db.cfg.PhaseLength)
		first := db.firstStashNs.Load()
		switch {
		case first != 0 && !absorbed:
			deadline = first // nothing batched that waiting would pay for
		case first != 0:
			deadline = min(deadline, first+int64(db.cfg.StashBudget))
		}
		if now < deadline {
			return time.Duration(deadline - now)
		}
		if first == 0 && db.extends < db.cfg.MaxSplitExtend && sliceWrites > uint64(db.cfg.KeepMinWrites) {
			for _, w := range db.workers {
				w.sliceWritesPhase.Store(0)
			}
			db.extends++
			return db.cfg.PhaseLength
		}
		// The joined phase's clock starts when this transition completes,
		// so measure the split phase up to its publication: both phases
		// then carry one transition's latency. A split phase that
		// absorbed nothing says nothing about the next one's length.
		if absorbed {
			db.splitRan = time.Duration(now - start)
		}
		db.beginTransition(PhaseJoined, nil)
		return 0
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

// StopPhases stops phase publication: the coordinator exits, and no
// later step, the coordinator's or a worker's at commit (checkDue),
// proposes a transition. One already in flight still completes as the
// workers acknowledge it. A driver calls it before it stops driving its
// workers, so that no transition published after one worker stopped
// can pause the others. Close calls it too.
func (db *DB) StopPhases() {
	db.coordMu.Lock()
	halted := db.halted
	db.halted = true
	db.coordMu.Unlock()
	if !halted {
		close(db.stop)
		db.coordWG.Wait()
	}
}

// Close stops phase publication, completes any in-flight transition on
// behalf of the stopped workers, reconciles all outstanding per-core
// slices into the global store, and completes every request the workers
// hold, replaying stashed and parked ones. After Close the store
// reflects every committed transaction. Workers' driving goroutines
// must have stopped before Close is called; a completion may run on
// Close's goroutine. A second Close finds nothing left to do.
func (db *DB) Close() {
	db.StopPhases()
	db.quiesce()
}

// Stop implements engine.Engine.
func (db *DB) Stop() { db.Close() }

// quiesce drives the database to a fully reconciled joined phase, acting
// on behalf of the (stopped) workers, and completes what they hold.
func (db *DB) quiesce() {
	// Complete an in-flight transition, then reconcile a split phase
	// back to joined.
	if tr := db.inflight.Load(); tr != nil {
		db.ackAll(tr)
	}
	if db.Phase() == PhaseSplit && db.beginTransition(PhaseJoined, nil) {
		db.ackAll(db.inflight.Load())
	}
	// Joined phase now: replay every worker's stash, and retry its
	// parked requests until none is left. The workers hold no record
	// locks now, so a conflict retry is woken at once unless the router
	// holds one; the router wakes every worker of the shard after it
	// releases its locks and fences.
	for _, w := range db.workers {
		w.replayAll(&w.stash)
		for w.replayAll(&w.parked); len(w.parked) > 0; w.replayAll(&w.parked) {
			<-w.wake
		}
		w.flushAcks()
	}
}

// ackAll acknowledges tr on behalf of every worker that has not.
func (db *DB) ackAll(tr *transition) {
	for _, w := range db.workers {
		if w.ackedEpoch < tr.epoch {
			w.ack(tr)
		}
	}
}

var _ engine.Engine = (*DB)(nil)
