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

// stashedTxn is a transaction saved during a split phase for re-execution
// in the next joined phase (§5.2).
type stashedTxn struct {
	fn     engine.TxFunc
	submit int64
}

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
	stash           []stashedTxn
	stashSpare      []stashedTxn // the drained stash's backing array, reused by the next drain
	tx              Tx
	sampleTick      int
	stashTick       int
	maxStashLen     int
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
	// while redo logging is on: those writes have no redo record yet —
	// they are logged when reconcile merges the slices — so a
	// durability-synchronous caller must not acknowledge until this
	// flag clears. Touched only on the worker goroutine (and by quiesce
	// after the workers have stopped).
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
			w.transitionDuty(tr)
			w.ackedEpoch = tr.epoch
			if tr.acks.Add(1) == tr.total {
				db.completeTransition(tr)
			} else {
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
			// split phase", §5.4).
			w.drainStash()
		}
	}
	return true
}

// transitionDuty performs this worker's obligation before acknowledging
// tr: when leaving a split phase, merge the per-core slices into the
// global store (the reconciliation phase, §5.3, Figure 4).
func (w *Worker) transitionDuty(tr *transition) {
	if tr.target == PhaseJoined && Phase(w.db.phase.Load()) == PhaseSplit {
		w.reconcile()
	}
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
	// any) appended — redoLSN covers them, so durability-synchronous
	// waiters may proceed to the watermark.
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

// drainStash re-executes stashed transactions during a joined phase.
// The phase cannot change underneath the drain because this worker has
// not acknowledged any new transition.
func (w *Worker) drainStash() {
	if len(w.stash) == 0 {
		return
	}
	// Replays cannot stash (this is a joined phase), but one that hits a
	// commit fence goes back into w.stash: give it the spare array.
	pending := w.stash
	w.stash = w.stashSpare[:0]
	for _, s := range pending {
		for attempt := 0; ; attempt++ {
			// The stash itself was already counted (Stashed); the first
			// replay is the transaction's normal completion, so only
			// attempts beyond it count as retries — otherwise a stashed
			// transaction that commits immediately would still report one.
			if attempt > 0 {
				w.stats.Retries.Add(1)
			}
			out, _ := w.execOnce(s.fn, s.submit)
			if out == engine.Committed || out == engine.UserAbort {
				break
			}
			if out == engine.AbortedFenced {
				// The fence's owner — a cross-shard apply transaction — may
				// be queued behind this very drain on this worker, so
				// spinning here could wait forever for a fence only we can
				// release. Put the transaction back in the stash and move
				// on; a Poll in the joined phase retries it after the
				// fence clears.
				w.stash = append(w.stash, s)
				break
			}
			if attempt > 1<<20 {
				// Pathological livelock: drop the transaction after
				// counting its aborts, but never silently — the loss is
				// visible in Stats and logged once per worker.
				w.stats.StashDropped.Add(1)
				if !w.loggedStashDrop {
					w.loggedStashDrop = true
					log.Printf("doppel: worker %d: dropped a stashed transaction after %d failed replays (livelock); counting further drops in stats only", w.id, attempt)
				}
				break
			}
		}
	}
	clear(pending) // drop the replayed closures for the collector
	w.stashSpare = pending[:0]
}

// attempt implements one engine.Attempt call for this worker.
func (w *Worker) attempt(fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	if !w.checkPhase() {
		return engine.Paused, nil
	}
	w.attemptsWindow.Add(1)
	return w.execOnce(fn, submitNanos)
}

// poll participates in phase transitions without running a transaction.
// In a joined phase it also replays whatever is still stashed: a drain
// puts back transactions that hit a commit fence, and once the fence is
// released they must not wait for the next phase change.
func (w *Worker) poll() {
	if w.checkPhase() && len(w.stash) > 0 && w.db.Phase() == PhaseJoined {
		w.drainStash()
	}
}

// execOnce runs fn once in the current phase and classifies the outcome.
func (w *Worker) execOnce(fn engine.TxFunc, submitNanos int64) (engine.Outcome, error) {
	// Fail-stop: once the redo logger is terminally dead, new
	// transactions must not keep acknowledging as durable. Failed() is
	// one atomic load, so the healthy path pays nothing.
	if cfg := &w.db.cfg; cfg.WALFailStop && cfg.Redo != nil && cfg.Redo.Failed() {
		return engine.UserAbort, fmt.Errorf("core: redo log failed, refusing new transactions: %w", cfg.Redo.Err())
	}
	tx := &w.tx
	tx.reset(w)
	err := fn(tx)
	switch {
	case errors.Is(err, engine.ErrStash):
		w.stash = append(w.stash, stashedTxn{fn, submitNanos})
		if len(w.stash) > w.maxStashLen {
			w.maxStashLen = len(w.stash)
		}
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
		lat := now - submitNanos
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

// noteRedoLSN records the outcome of a redo append so RedoLSN can
// report what a durability-synchronous caller must wait for. A refused
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
