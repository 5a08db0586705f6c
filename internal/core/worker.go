package core

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// opKindCount sizes per-operation counter arrays.
const opKindCount = int(store.OpTopKInsert) + 1

// workerIDMask extracts the worker-ID byte of a commit TID; see the TID
// layout in doc.go. Config.Workers is capped at MaxWorkers so the mask
// never aliases two workers.
const workerIDMask = 0xff

// opCounts is a per-key, per-operation conflict/stash counter.
type opCounts [opKindCount]uint32

// Completion receives a request's outcome; see Run. doppel's pooled
// request implements it, so holding one allocates nothing. Complete is
// called exactly once, with nil for a commit, and must not call back
// into the engine.
type Completion interface {
	Complete(err error)
}

// held is a request a worker keeps for a later run: stashed for the
// next joined phase (§5.2), or parked on a commit fence until a wake.
// done is nil for a transaction submitted through Attempt.
type held struct {
	fn     engine.TxFunc
	submit int64
	done   Completion
}

// maxReplays bounds the consecutive conflict aborts of a held request's
// replay; after that it is dropped (see replay).
const maxReplays = 1 << 20

// sliceState is one per-core slice: the accumulated value for one split
// record on one worker (§4). val == nil is the operation's identity.
//
// The integer operations (Add, Max, Min, Mult) accumulate in place in
// own, and val then points at it, so a slice allocates nothing. The
// slice array is reused from one split phase to the next, so own is
// written again: reconcile never publishes a pointer to it into the
// global record, but a copy.
type sliceState struct {
	val    *store.Value
	own    store.Value
	writes uint64
}

// Worker is one per-core execution context. All methods except the
// coordinator-side aggregation helpers must be called from the single
// goroutine that drives this worker.
type Worker struct {
	db    *DB
	id    int
	tidID int // id + Config.WorkerIDBase: the ID embedded in commit TIDs
	stats *metrics.TxnStats
	wake  chan struct{} // one-slot wakeup; see DB.Wake

	lastSeq         uint64 // TID sequence generator state
	ackedEpoch      uint64 // highest transition epoch acknowledged
	seenEpoch       uint64 // highest completed epoch whose entry work ran
	slices          []sliceState
	stash           []held       // stashed in a split phase; replayed on entering a joined phase
	parked          []held       // aborted on a commit fence; retried by Poll after a wake
	acks            []Completion // committed under SyncCommit; completed once the redo log covers them
	tx              Tx
	sampleTick      int
	stashTick       int
	loggedMergeFail bool // first reconcile merge failure already logged
	loggedStashDrop bool // first dropped stashed transaction already logged

	// Redo-record encode scratch, reused across commits and reconcile
	// merges. All four are written only on this worker's goroutine; the
	// logger copies the finished frame, so reuse is safe the moment
	// Append returns.
	redoVal  []byte   // encoded values, back to back
	redoOffs []int    // redoVal offsets, one per op plus the tail
	redoOps  []wal.Op // assembled op list
	redoEnc  []byte   // the encoded record frame handed to the logger
	redoLSN  uint64   // LSN of this worker's newest redo append; see noteRedoLSN

	// slicedRedo is set when a commit buffered split (slice) writes
	// while redo logging is on: those writes have no redo record until
	// reconcile merges the slices, so flushAcks holds SyncCommit
	// acknowledgements until it clears. Worker goroutine only (and
	// quiesce after the workers have stopped).
	slicedRedo bool

	// Cross-thread counters read by the coordinator.
	attemptsWindow   atomic.Uint64 // attempts since the classifier last looked
	sliceWritesPhase atomic.Uint64 // slice writes since the phase began or was extended

	// Classifier samples, guarded by statsMu (worker writes, coordinator
	// aggregates and clears; the maps keep their buckets across phases).
	statsMu      sync.Mutex
	conflicts    map[string]opCounts // joined-phase conflict samples
	splitWrites  map[string]uint64   // split-phase slice write counts
	splitStashes map[string]opCounts // split-phase stash samples by op
}

func newWorker(db *DB, id int) *Worker {
	return &Worker{
		db:           db,
		id:           id,
		tidID:        db.cfg.WorkerIDBase + id,
		stats:        metrics.NewTxnStats(),
		wake:         make(chan struct{}, 1),
		conflicts:    map[string]opCounts{},
		splitWrites:  map[string]uint64{},
		splitStashes: map[string]opCounts{},
	}
}

// notify leaves a wakeup in the worker's wake channel without blocking.
// A token already there covers this one: the woken goroutine re-reads
// all state after taking it.
func (w *Worker) notify() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// checkPhase participates in the phase-change protocol (§5.4). It
// returns false when the worker must not execute transactions yet (a
// transition is in flight and not all workers have acknowledged it).
func (w *Worker) checkPhase() bool {
	db := w.db
	if tr := db.inflight.Load(); tr != nil {
		if w.ackedEpoch < tr.epoch {
			if !w.ack(tr) {
				return false
			}
		} else {
			select {
			case <-tr.released:
			default:
				return false
			}
		}
	}
	// Entry work for a newly completed phase. Safe without locks: the
	// phase cannot advance again until this worker acknowledges the next
	// transition.
	if ep := db.phaseEpoch.Load(); w.seenEpoch < ep {
		w.seenEpoch = ep
		w.sliceWritesPhase.Store(0)
		if db.Phase() == PhaseSplit {
			w.resetSlices(db.split.Load())
		} else {
			// Entering a joined phase: restart stashed transactions
			// ("each worker restarts any transactions it stashed in the
			// split phase", §5.4). This worker acknowledges no transition
			// meanwhile, so no replay can stash again.
			w.replayAll(&w.stash)
		}
	}
	return true
}

// ack performs this worker's obligation before acknowledging tr (when
// leaving a split phase, merge the per-core slices into the global
// store: the reconciliation phase, §5.3, Figure 4) and acknowledges it.
// It reports whether this was the last acknowledgement, which completed
// tr.
func (w *Worker) ack(tr *transition) bool {
	if tr.target == PhaseJoined && Phase(w.db.phase.Load()) == PhaseSplit {
		w.reconcile()
	}
	w.ackedEpoch = tr.epoch
	if tr.acks.Add(1) != tr.total {
		return false
	}
	w.db.completeTransition(tr)
	return true
}

// reconcile merges this worker's slices into the global store: for each
// split record, lock, merge-apply, unlock with a fresh TID (Figure 4).
// Cost is O(split records), independent of how many operations the slices
// absorbed.
func (w *Worker) reconcile() {
	set := w.db.split.Load()
	for _, sk := range set.list {
		if sk.idx >= len(w.slices) {
			continue
		}
		sl := &w.slices[sk.idx]
		if sl.writes == 0 {
			continue
		}
		rec := sk.rec
		rec.Lock()
		// Copy-on-write hook for incremental checkpoints: the merge below
		// installs a new value and TID, so the pre-merge state must be
		// saved first if an active capture has not claimed this record.
		// (Harmless on the merge-failure path: the saved state is then
		// simply the record's unchanged state.)
		w.db.st.SaveBeforeWrite(sk.key, rec)
		merged, err := store.MergeValues(sk.op, rec.Value(), sl.val)
		if err != nil {
			// The slice's absorbed writes cannot merge (the global value
			// and the slice value have incompatible types). Keep the old
			// value AND the old TID: a fresh TID would invalidate readers
			// for a write that never happened, and recovery would diverge
			// from memory since no redo record is logged. Count the loss
			// and log it once per worker rather than once per phase.
			rec.Unlock()
			w.stats.MergeFailures.Add(1)
			if !w.loggedMergeFail {
				w.loggedMergeFail = true
				log.Printf("doppel: worker %d: reconcile dropped %d absorbed %v writes for %q: %v",
					w.id, sl.writes, sk.op, sk.key, err)
			}
			continue
		}
		if merged == &sl.own {
			// The next split phase reuses this slice: publish a copy.
			v := sl.own
			merged = &v
		}
		rec.SetValue(merged)
		tid, _ := rec.TIDWord()
		seq := tid >> 8
		if w.lastSeq > seq {
			seq = w.lastSeq
		}
		seq++
		w.lastSeq = seq
		newTID := seq<<8 | uint64(w.tidID)&workerIDMask
		if redo := w.db.cfg.Redo; redo != nil {
			// Same reusable encode scratch as the commit path: one redo
			// record per merged slice, no per-slice allocations.
			w.redoVal = store.AppendValue(w.redoVal[:0], merged)
			w.redoOps = append(w.redoOps[:0], wal.Op{Key: sk.key, Value: w.redoVal})
			w.redoEnc = wal.AppendRecord(w.redoEnc[:0], wal.Record{TID: newTID, Ops: w.redoOps})
			w.noteRedoLSN(redo.Append(w.redoEnc, newTID))
		}
		rec.UnlockWithTID(newTID)

		// Write sampling feeds the keep/demote decision (§5.5).
		w.statsMu.Lock()
		w.splitWrites[sk.key] += sl.writes
		w.statsMu.Unlock()
	}
	w.slices = w.slices[:0]
	// Every absorbed slice write is now merged and its redo record (if
	// any) appended: redoLSN covers them, so flushAcks may wait on the
	// watermark for the acknowledgements it held back.
	w.slicedRedo = false
}

// resetSlices prepares empty per-core slices for a new split phase,
// reusing the previous phase's array when it is large enough.
func (w *Worker) resetSlices(set *splitSet) {
	n := set.size()
	if cap(w.slices) < n {
		w.slices = make([]sliceState, n)
		return
	}
	w.slices = w.slices[:n]
	clear(w.slices)
}

// replayAll replays the requests held in *list (w.stash or w.parked),
// completing each as it finishes. Those that stash or park again are
// appended to their list, which keeps them for the next round; the
// array is reused, so holding requests allocates nothing once warm.
func (w *Worker) replayAll(list *[]held) {
	n := len(*list)
	for i := 0; i < n; i++ {
		h := (*list)[i] // not a range: a request held again may move the array
		(*list)[i] = held{}
		w.replay(h)
	}
	rest := copy(*list, (*list)[n:])
	clear((*list)[rest:])
	*list = (*list)[:rest]
}

// replay runs a held request until it stops aborting on conflicts,
// then settles it. Only runs beyond the first count as Retries.
func (w *Worker) replay(h held) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			w.stats.Retries.Add(1)
		}
		out, err := w.execOnce(h)
		if out != engine.Aborted {
			w.settle(h, out, err)
			return
		}
		if attempt >= maxReplays {
			// Pathological livelock: drop the request, but never
			// silently: its caller gets an error, Stats count it, and
			// the first drop per worker is logged.
			w.stats.StashDropped.Add(1)
			if !w.loggedStashDrop {
				w.loggedStashDrop = true
				log.Printf("doppel: worker %d: dropped a held transaction after %d failed replays (livelock); counting further drops in stats only", w.id, attempt)
			}
			if h.done != nil {
				h.done.Complete(fmt.Errorf("core: transaction dropped after %d conflicting replays", attempt))
			}
			return
		}
	}
}

// settle disposes of a run of h the engine owns (a replay, or a
// request with a completion): a commit completes, under SyncCommit via
// flushAcks; a failure completes with its error; a fence abort parks h.
// execOnce already stashed a stash, and a conflict is the caller's.
func (w *Worker) settle(h held, out engine.Outcome, err error) {
	switch out {
	case engine.Committed:
		switch {
		case h.done == nil:
		case w.db.cfg.SyncCommit:
			w.acks = append(w.acks, h.done)
		default:
			h.done.Complete(nil)
		}
	case engine.UserAbort:
		if h.done != nil {
			h.done.Complete(err)
		}
	case engine.AbortedFenced:
		w.parked = append(w.parked, h)
	}
}

// flushAcks completes the held SyncCommit acknowledgements after one
// wait on the group-commit watermark, unless this worker has slice
// writes reconcile has not logged yet. It runs after ack, never inside
// it, where an fsync would stall every worker's transition.
func (w *Worker) flushAcks() {
	if len(w.acks) == 0 || w.slicedRedo {
		return
	}
	var err error
	if derr := w.db.cfg.Redo.WaitDurable(w.redoLSN); derr != nil {
		err = fmt.Errorf("core: commit not durable: %w", derr)
	}
	for i, c := range w.acks {
		w.acks[i] = nil
		c.Complete(err)
	}
	w.acks = w.acks[:0]
}

// attempt implements Attempt (done nil) and Run for this worker.
func (w *Worker) attempt(fn engine.TxFunc, submitNanos int64, done Completion) (engine.Outcome, error) {
	if !w.checkPhase() {
		w.flushAcks() // the acknowledged transition may have reconciled
		return engine.Paused, nil
	}
	w.attemptsWindow.Add(1)
	h := held{fn, submitNanos, done}
	out, err := w.execOnce(h)
	if done != nil {
		w.settle(h, out, err)
	}
	w.flushAcks()
	return out, err
}

// poll participates in phase transitions and, once the worker may run,
// retries its parked requests: the wake Poll follows may have been a
// fence release.
func (w *Worker) poll() {
	if w.checkPhase() {
		w.replayAll(&w.parked)
	}
	w.flushAcks()
}

// execOnce runs h once in the current phase and classifies the outcome.
// A transaction that stashes is appended to the stash with its
// completion.
func (w *Worker) execOnce(h held) (engine.Outcome, error) {
	// Fail-stop: once the redo logger is terminally dead, new
	// transactions must not keep acknowledging as durable. Failed() is
	// one atomic load, so the healthy path pays nothing.
	if cfg := &w.db.cfg; cfg.WALFailStop && cfg.Redo != nil && cfg.Redo.Failed() {
		return engine.UserAbort, fmt.Errorf("core: redo log failed, refusing new transactions: %w", cfg.Redo.Err())
	}
	tx := &w.tx
	tx.reset(w)
	err := h.fn(tx)
	switch {
	case errors.Is(err, engine.ErrStash):
		w.stash = append(w.stash, h)
		w.stats.Stashed.Add(1)
		w.db.noteStash()
		return engine.Stashed, nil
	case errors.Is(err, engine.ErrFenced):
		w.stats.FenceAborts.Add(1)
		return engine.AbortedFenced, nil
	case errors.Is(err, engine.ErrAbort):
		w.stats.Aborted.Add(1)
		return engine.Aborted, nil
	case err != nil:
		return engine.UserAbort, err
	}
	out, cerr := tx.commit()
	if cerr != nil {
		return engine.UserAbort, cerr
	}
	switch out {
	case engine.Committed:
		w.stats.Committed.Add(1)
		now := engine.Now()
		w.db.checkDue(now)
		lat := now - h.submit
		if tx.wrote {
			w.stats.WriteLatency.Record(lat)
		} else {
			w.stats.ReadLatency.Record(lat)
		}
	case engine.Aborted:
		w.stats.Aborted.Add(1)
	case engine.AbortedFenced:
		w.stats.FenceAborts.Add(1)
	}
	return out, nil
}

// noteRedoLSN records the outcome of a redo append so flushAcks knows
// what a SyncCommit acknowledgement must wait for. A refused
// append (the logger failed terminally) stores the max LSN sentinel:
// waiting on it surfaces the terminal error instead of acknowledging a
// commit whose redo record was never accepted.
func (w *Worker) noteRedoLSN(lsn uint64, err error) {
	if err != nil {
		lsn = ^uint64(0)
	}
	w.redoLSN = lsn
}

// sampleConflict records a conflicting access to key by op for the
// classifier, subject to the configured sampling rate (§5.5).
func (w *Worker) sampleConflict(key string, op store.OpKind) {
	w.sampleTick++
	if w.sampleTick%w.db.cfg.SampleRate != 0 {
		return
	}
	w.statsMu.Lock()
	oc := w.conflicts[key]
	oc[op]++
	w.conflicts[key] = oc
	w.statsMu.Unlock()
}

// sampleStash records that a transaction had to be stashed because it
// accessed split record key with op (§5.5: stash sampling). Like
// sampleConflict it honors Config.SampleRate, so a split-phase stash
// storm touches the stats mutex only once per SampleRate stashes
// instead of serializing every worker on it.
func (w *Worker) sampleStash(key string, op store.OpKind) {
	w.stashTick++
	if w.stashTick%w.db.cfg.SampleRate != 0 {
		return
	}
	w.statsMu.Lock()
	oc := w.splitStashes[key]
	oc[op]++
	w.splitStashes[key] = oc
	w.statsMu.Unlock()
}
