package core

import (
	"doppel/internal/engine"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// readSpins bounds how long a read waits for a locked record before
// aborting the transaction.
const readSpins = 128

// Tx is one Doppel transaction execution. Each transaction executes
// entirely within one phase (§5.1): the phase and split set are
// snapshotted at reset time and cannot change during execution, because
// phase transitions require this worker's acknowledgement, which happens
// only between transactions.
type Tx struct {
	w     *Worker
	phase Phase
	set   *splitSet

	reads  []readEnt
	wset   []writeEnt
	sw     []sliceWrite // buffered split writes (the paper's SW, Figure 3)
	pend   []pending
	swPend []slicePend // scratch for pre-computed slice values
	wrote  bool
	// fence is the commit-fence token this transaction owns, zero for
	// ordinary transactions. The router's cross-shard apply sets it (via
	// engine.FenceTx) so the apply transaction passes the fence checks on
	// its own fenced records while everyone else aborts on them.
	fence uint64
	// blocker is the record a conflict abort found locked or changed;
	// the worker retries after it is unlocked (see Worker.awaitUnlock).
	blocker *store.Record
}

type readEnt struct {
	rec *store.Record
	key string
	tid uint64
	op  store.OpKind // operation that motivated this read (OpGet for reads)
}

type writeEnt struct {
	key string
	rec *store.Record
	op  store.Op
}

type sliceWrite struct {
	sk *splitKey
	op store.Op
}

// slicePend is one buffered slice write's pre-computed result. An
// integer result is held in own, with val pointing at it, so computing
// it allocates nothing; applySliceWrites copies it into the slice.
type slicePend struct {
	val *store.Value
	own store.Value
}

type pending struct {
	rec *store.Record
	val *store.Value
	key string // the record's key, carried so logRedo need not re-match
}

func (t *Tx) reset(w *Worker) {
	t.w = w
	t.phase = w.db.Phase()
	t.set = w.db.split.Load()
	t.reads = t.reads[:0]
	t.wset = t.wset[:0]
	t.sw = t.sw[:0]
	t.wrote = false
	t.fence = 0
	t.blocker = nil
}

// SetFenceToken implements engine.FenceTx.
func (t *Tx) SetFenceToken(token uint64) { t.fence = token }

// fencedBy reports whether rec carries a foreign commit fence — one this
// transaction does not own. A fenced record belongs to an in-flight
// cross-shard commit; interleaving with it would lose a write, so the
// caller aborts with AbortedFenced/ErrFenced.
func (t *Tx) fencedBy(rec *store.Record) bool {
	ft := rec.FenceToken()
	return ft != 0 && ft != t.fence
}

// WorkerID implements engine.Ops.
func (t *Tx) WorkerID() int { return t.w.id }

// splitLookup reports how an access to key interacts with split data.
// During a split phase, an access to a split record with the selected
// operation goes to the per-core slice; any other access (a read, a Put,
// or a different operation) stashes the transaction until the next
// joined phase (§5.2).
func (t *Tx) splitLookup(key string, op store.OpKind) (*splitKey, error) {
	if t.phase != PhaseSplit {
		return nil, nil
	}
	sk := t.set.lookup(key)
	if sk == nil {
		return nil, nil
	}
	if sk.op == op {
		return sk, nil
	}
	t.w.sampleStash(key, op)
	return nil, engine.ErrStash
}

// Read implements engine.Ops: a Silo consistent read with split-data
// checking and read-your-writes overlay. forUpdate means nothing under
// OCC.
//
//doppel:hotpath
func (t *Tx) Read(key string, _ bool) (*store.Value, error) {
	if _, err := t.splitLookup(key, store.OpGet); err != nil {
		return nil, err
	}
	rec, _ := t.w.db.st.GetOrCreate(key)
	if t.fencedBy(rec) {
		return nil, engine.ErrFenced
	}
	v, tid, ok := rec.ReadConsistent(readSpins)
	if !ok {
		t.blocker = rec
		t.w.sampleConflict(key, store.OpGet)
		return nil, engine.ErrAbort
	}
	t.reads = append(t.reads, readEnt{rec, key, tid, store.OpGet})
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

// Write implements engine.Ops. A splittable operation on a record split
// with that operation selected goes to the per-core slice; any other
// access to a split record during a split phase stashes the
// transaction. Otherwise a Put is a blind buffered write, and a
// splittable operation takes the joined-phase read-validate-write path.
// OPut and TopKInsert carry the worker's TID-domain ID, so their
// tie-breaking stays deterministic across the shards of a cluster, not
// just within one instance.
//
//doppel:hotpath
func (t *Tx) Write(key string, op store.Op) error {
	op.SetCoreID(t.w.tidID)
	sk, err := t.splitLookup(key, op.Kind)
	if err != nil {
		return err
	}
	t.wrote = true
	if sk != nil {
		// Split write: buffered, applied to the local slice at commit
		// with no locks and no read validation (Figure 3).
		t.sw = append(t.sw, sliceWrite{sk, op})
		return nil
	}
	rec, _ := t.w.db.st.GetOrCreate(key)
	if op.Kind.Splittable() {
		// Joined path (or unsplit record in a split phase): the read
		// validation is what makes contention observable to the
		// classifier.
		if t.fencedBy(rec) {
			return engine.ErrFenced
		}
		_, tid, ok := rec.ReadConsistent(readSpins)
		if !ok {
			t.blocker = rec
			t.w.sampleConflict(key, op.Kind)
			return engine.ErrAbort
		}
		t.reads = append(t.reads, readEnt{rec, key, tid, op.Kind})
	}
	t.wset = append(t.wset, writeEnt{key, rec, op})
	return nil
}

// inWrites reports whether rec is locked by this transaction's write set.
func (t *Tx) inWrites(rec *store.Record) bool {
	for i := range t.wset {
		if t.wset[i].rec == rec {
			return true
		}
	}
	return false
}

// genTID produces a commit TID greater than every observed TID, tagged
// with the worker ID (§5.1).
func (t *Tx) genTID() uint64 {
	w := t.w
	seq := w.lastSeq
	for i := range t.reads {
		if s := t.reads[i].tid >> 8; s > seq {
			seq = s
		}
	}
	for i := range t.wset {
		tid, _ := t.wset[i].rec.TIDWord()
		if s := tid >> 8; s > seq {
			seq = s
		}
	}
	seq++
	w.lastSeq = seq
	return seq<<8 | uint64(w.tidID)&workerIDMask
}

// commit runs the joined-phase protocol (Figure 2) extended with split
// writes (Figure 3): after the OCC part succeeds, buffered split writes
// apply to this worker's slices, which need no locks or version checks
// because they are invisible to other cores.
//
//doppel:hotpath
func (t *Tx) commit() (engine.Outcome, error) {
	// Pre-compute slice values so a type error aborts with no effects.
	// The scratch persists across transactions and integer results land
	// in it, so a split-phase Add, Max, Min or Mult allocates nothing.
	// It is sized before any entry is filled in: a later entry may
	// point into an earlier one, so it must not move.
	swVals := t.swPend[:0]
	for range t.sw {
		swVals = append(swVals, slicePend{})
	}
	t.swPend = swVals
	for i, sw := range t.sw {
		// Compose with earlier writes to the same slice in this txn.
		cur := t.w.slices[sw.sk.idx].val
		for j := 0; j < i; j++ {
			if t.sw[j].sk == sw.sk {
				cur = swVals[j].val
			}
		}
		p := &swVals[i]
		if sw.op.Kind.IntOp() {
			n, err := store.ApplyInt(cur, sw.op)
			if err != nil {
				return engine.UserAbort, err
			}
			p.own.Kind, p.own.Int = store.KindInt64, n
			p.val = &p.own
			continue
		}
		nv, err := store.Apply(cur, sw.op)
		if err != nil {
			return engine.UserAbort, err
		}
		p.val = nv
	}

	// Read-only (and slice-only) fast path. The fence check closes the
	// readers-see-partial-state window: a snapshot that validates with
	// every fence clear was taken either wholly before the cross-shard
	// prepare (fences install before any apply) or wholly after its last
	// apply (applies bump TIDs, so an in-between snapshot fails the TID
	// check instead).
	if len(t.wset) == 0 {
		for i := range t.reads {
			tid, locked := t.reads[i].rec.TIDWord()
			if locked || tid != t.reads[i].tid {
				t.blocker = t.reads[i].rec
				t.sampleReadConflicts()
				return engine.Aborted, nil
			}
			if t.fencedBy(t.reads[i].rec) {
				return engine.AbortedFenced, nil
			}
		}
		t.applySliceWrites(swVals)
		return engine.Committed, nil
	}

	// Part 1: lock the write set in key order. Write sets are almost
	// always tiny (one to a handful of entries), so an inline insertion
	// sort beats sort.SliceStable — which costs a closure allocation and
	// reflection-based swaps on every commit. Shifting only on strict
	// inequality keeps the sort stable: entries for the same key stay in
	// buffered order, which the per-record Apply loop below relies on.
	for i := 1; i < len(t.wset); i++ {
		for j := i; j > 0 && t.wset[j].key < t.wset[j-1].key; j-- {
			t.wset[j], t.wset[j-1] = t.wset[j-1], t.wset[j]
		}
	}
	locked := 0
	for i := range t.wset {
		if i > 0 && t.wset[i].rec == t.wset[i-1].rec {
			continue
		}
		if !t.wset[i].rec.TryLock() {
			t.blocker = t.wset[i].rec
			t.unlockPrefix(locked)
			t.w.sampleConflict(t.wset[i].key, t.wset[i].op.Kind)
			return engine.Aborted, nil
		}
		locked = i + 1
		// Fence check under the record lock: the cross-shard prepare
		// reads its validation snapshot inside this same lock after
		// fencing, so either that read sees our installed value (stale →
		// the prepare retries) or we see its fence here and yield.
		if t.fencedBy(t.wset[i].rec) {
			t.unlockPrefix(locked)
			return engine.AbortedFenced, nil
		}
	}
	commitTID := t.genTID()

	// Part 2: validate the read set.
	for i := range t.reads {
		rd := &t.reads[i]
		tid, isLocked := rd.rec.TIDWord()
		if tid != rd.tid || (isLocked && !t.inWrites(rd.rec)) {
			t.blocker = rd.rec
			t.unlockPrefix(locked)
			t.w.sampleConflict(rd.key, rd.op)
			return engine.Aborted, nil
		}
		if t.fencedBy(rd.rec) {
			t.unlockPrefix(locked)
			return engine.AbortedFenced, nil
		}
	}

	// Part 3: compute new values, install, release locks with the new
	// TID, then apply split writes to the local slices.
	newVals := t.pend[:0]
	for i := 0; i < len(t.wset); {
		rec := t.wset[i].rec
		// Copy-on-write hook for incremental checkpoints: holding the
		// commit lock, save the record's pre-write state if an active
		// capture has not claimed it yet.
		t.w.db.st.SaveBeforeWrite(t.wset[i].key, rec)
		v := rec.Value()
		var err error
		j := i
		for ; j < len(t.wset) && t.wset[j].rec == rec; j++ {
			v, err = store.Apply(v, t.wset[j].op)
			if err != nil {
				t.unlockPrefix(len(t.wset))
				return engine.UserAbort, err
			}
		}
		newVals = append(newVals, pending{rec, v, t.wset[i].key})
		i = j
	}
	t.pend = newVals
	// Log before releasing locks so redo records for one record appear
	// in commit order.
	t.logRedo(commitTID, newVals)
	for _, p := range newVals {
		p.rec.SetValue(p.val)
		p.rec.UnlockWithTID(commitTID)
	}
	t.applySliceWrites(swVals)
	return engine.Committed, nil
}

// logRedo emits an asynchronous redo record for the installed values.
// Split (slice) writes are not globally visible yet; they are logged by
// reconcile when they merge. Each pending entry carries its key, so the
// record is assembled in one pass; values encode into the worker's
// reusable scratch buffers and the finished frame is handed to the
// logger, which copies it — the steady-state path allocates nothing.
//
//doppel:hotpath
func (t *Tx) logRedo(commitTID uint64, newVals []pending) {
	redo := t.w.db.cfg.Redo
	if redo == nil || len(newVals) == 0 {
		return
	}
	w := t.w
	// Encode all values first, recording offsets: appending can grow
	// (and move) the buffer, so slices are taken only after the last
	// append.
	val := w.redoVal[:0]
	offs := w.redoOffs[:0]
	for i := range newVals {
		offs = append(offs, len(val))
		val = store.AppendValue(val, newVals[i].val)
	}
	offs = append(offs, len(val))
	ops := w.redoOps[:0]
	for i := range newVals {
		ops = append(ops, wal.Op{Key: newVals[i].key, Value: val[offs[i]:offs[i+1]]})
	}
	enc := wal.AppendRecord(w.redoEnc[:0], wal.Record{TID: commitTID, Ops: ops})
	w.redoVal, w.redoOffs, w.redoOps, w.redoEnc = val, offs, ops, enc
	// Commits do not wait for durability (asynchronous batched logging,
	// §3); a refused append means the logger failed terminally, which
	// surfaces through Failed()/Err() and WALFailStop. The assigned LSN
	// is noted so durability-synchronous callers can wait on it.
	w.noteRedoLSN(redo.Append(enc, commitTID))
}

// applySliceWrites installs pre-computed slice values and bumps write
// counts for the classifier's write sampling. Integer results are
// copied into the slice's own value, so they allocate nothing.
//
//doppel:hotpath
func (t *Tx) applySliceWrites(swVals []slicePend) {
	for i, sw := range t.sw {
		sl := &t.w.slices[sw.sk.idx]
		p := &swVals[i]
		if p.val == &p.own {
			sl.own.Kind, sl.own.Int = store.KindInt64, p.own.Int
			sl.val = &sl.own
		} else {
			sl.val = p.val
		}
		sl.writes++
	}
	if len(t.sw) > 0 {
		t.w.sliceWritesPhase.Add(uint64(len(t.sw)))
		if t.w.db.cfg.Redo != nil {
			// Slice writes are logged at reconciliation, not here; flag
			// the gap for SyncCommit (the worker's redoLSN does not
			// cover this commit until reconcile runs).
			t.w.slicedRedo = true
		}
	}
}

// sampleReadConflicts attributes a read-only validation failure to the
// records that changed.
func (t *Tx) sampleReadConflicts() {
	for i := range t.reads {
		tid, locked := t.reads[i].rec.TIDWord()
		if locked || tid != t.reads[i].tid {
			t.w.sampleConflict(t.reads[i].key, t.reads[i].op)
		}
	}
}

// unlockPrefix releases locks acquired on the first n write-set entries.
func (t *Tx) unlockPrefix(n int) {
	for i := 0; i < n; i++ {
		if i > 0 && t.wset[i].rec == t.wset[i-1].rec {
			continue
		}
		t.wset[i].rec.Unlock()
	}
}

var (
	_ engine.Ops     = (*Tx)(nil)
	_ engine.FenceTx = (*Tx)(nil)
)
