package occ

import (
	"sort"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// Tx is one OCC transaction execution. It is reused across attempts by
// its owning worker to keep the per-transaction allocation count flat.
type Tx struct {
	eng   *Engine
	w     int
	reads []readEnt
	wset  []writeEnt
	pend  []pending
	wrote bool
}

type readEnt struct {
	rec *store.Record
	tid uint64
}

type writeEnt struct {
	key string
	rec *store.Record
	op  store.Op
}

// pending is a computed-but-not-installed commit value.
type pending struct {
	rec *store.Record
	val *store.Value
}

func (t *Tx) reset(e *Engine, w int) {
	t.eng = e
	t.w = w
	t.reads = t.reads[:0]
	t.wset = t.wset[:0]
	t.wrote = false
}

// WorkerID implements engine.Ops.
func (t *Tx) WorkerID() int { return t.w }

// Read implements engine.Ops: the Silo consistent read, which records
// the read TID and overlays the transaction's own buffered writes
// (read-your-writes). forUpdate means nothing under OCC.
func (t *Tx) Read(key string, _ bool) (*store.Value, error) {
	rec, _ := t.eng.st.GetOrCreate(key)
	v, tid, ok := rec.ReadConsistent(readSpins)
	if !ok {
		return nil, engine.ErrAbort
	}
	t.reads = append(t.reads, readEnt{rec, tid})
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

// Write implements engine.Ops by buffering op. A Put is a blind write:
// it takes no read-set entry (Silo permits blind writes). A splittable
// operation records a read TID first, which is what makes the OCC
// baseline behave as the paper describes: increments "read the value of
// a key, compute the new value ... and validate that it hasn't changed
// since it was first read", and therefore conflict under contention.
func (t *Tx) Write(key string, op store.Op) error {
	op.SetCoreID(t.w)
	rec, _ := t.eng.st.GetOrCreate(key)
	if op.Kind.Splittable() {
		_, tid, ok := rec.ReadConsistent(readSpins)
		if !ok {
			return engine.ErrAbort
		}
		t.reads = append(t.reads, readEnt{rec, tid})
	}
	t.wrote = true
	t.wset = append(t.wset, writeEnt{key, rec, op})
	return nil
}

// inWrites reports whether rec is in the transaction's write set (and so
// locked by this transaction during validation).
func (t *Tx) inWrites(rec *store.Record) bool {
	for i := range t.wset {
		if t.wset[i].rec == rec {
			return true
		}
	}
	return false
}

// genTID produces a commit TID greater than every TID observed by the
// transaction, composed with the worker ID so TIDs are globally unique
// without a shared counter ("our implementation assigns TIDs locally",
// §5.1).
func (t *Tx) genTID() uint64 {
	ws := &t.eng.workers[t.w]
	seq := ws.lastSeq
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
	ws.lastSeq = seq
	return seq<<8 | uint64(t.w)&0xff
}

// commit runs the paper's Figure 2 protocol. A returned error is a
// non-retryable user error (e.g. type mismatch at apply time).
func (t *Tx) commit() (engine.Outcome, error) {
	// Read-only fast path: validate reads without locking anything.
	if len(t.wset) == 0 {
		for i := range t.reads {
			tid, locked := t.reads[i].rec.TIDWord()
			if locked || tid != t.reads[i].tid {
				return engine.Aborted, nil
			}
		}
		return engine.Committed, nil
	}

	// Part 1: lock the write set in global key order; abort if any
	// record is already locked.
	sort.SliceStable(t.wset, func(i, j int) bool { return t.wset[i].key < t.wset[j].key })
	locked := 0
	for i := range t.wset {
		if i > 0 && t.wset[i].rec == t.wset[i-1].rec {
			continue
		}
		if !t.wset[i].rec.TryLock() {
			t.unlockPrefix(locked)
			return engine.Aborted, nil
		}
		locked = i + 1
	}
	commitTID := t.genTID()

	// Part 2: validate the read set.
	for i := range t.reads {
		rd := &t.reads[i]
		tid, isLocked := rd.rec.TIDWord()
		if tid != rd.tid || (isLocked && !t.inWrites(rd.rec)) {
			t.unlockPrefix(locked)
			return engine.Aborted, nil
		}
	}

	// Part 3: apply buffered operations and release locks with the new
	// TID. Operations for one record apply in program order (the sort
	// above is stable). New values are computed for every record before
	// any is installed, so a type error at apply time aborts cleanly
	// with no partial effects.
	newVals := t.pend[:0]
	for i := 0; i < len(t.wset); {
		rec := t.wset[i].rec
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
		newVals = append(newVals, pending{rec, v})
		i = j
	}
	t.pend = newVals
	for _, p := range newVals {
		p.rec.SetValue(p.val)
		p.rec.UnlockWithTID(commitTID)
	}
	return engine.Committed, nil
}

// unlockPrefix releases the locks acquired on the first n write-set
// entries (skipping duplicate records).
func (t *Tx) unlockPrefix(n int) {
	for i := 0; i < n; i++ {
		if i > 0 && t.wset[i].rec == t.wset[i-1].rec {
			continue
		}
		t.wset[i].rec.Unlock()
	}
}

var _ engine.Ops = (*Tx)(nil)
