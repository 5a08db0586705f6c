package store

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Record is one database record. It carries:
//
//   - a Silo-style TID word: the transaction ID of the last writer shifted
//     left one bit, with the low bit serving as a spinlock (used by the OCC
//     engines and by Doppel's joined/split/reconciliation protocols);
//   - an atomically published pointer to the current immutable value;
//   - a read-write mutex used only by the 2PL engine.
//
// Values are never mutated in place, so a reader that observes the same
// unlocked TID word before and after loading the value pointer has a
// consistent snapshot (the Silo read protocol).
type Record struct {
	tid atomic.Uint64
	val atomic.Pointer[Value]
	// capGen is the copy-on-write capture generation that has already
	// saved this record's pre-barrier state; see cow.go. A record whose
	// capGen differs from the active Capture's generation has not been
	// captured yet.
	capGen atomic.Uint64
	// fence is the commit-fence word: zero when unfenced, otherwise the
	// token of the cross-shard two-phase commit that has validated this
	// record and not yet applied. Committers and validating readers that
	// observe a foreign token abort and retry; the token's owner (and
	// only the owner) passes. See internal/router/doc.go for the
	// protocol.
	fence atomic.Uint64
	mu    sync.RWMutex
}

const lockBit = 1

// TIDWord returns the record's current TID and whether it is locked.
func (r *Record) TIDWord() (tid uint64, locked bool) {
	w := r.tid.Load()
	return w >> 1, w&lockBit != 0
}

// TryLock attempts to acquire the record's commit lock without spinning.
func (r *Record) TryLock() bool {
	w := r.tid.Load()
	if w&lockBit != 0 {
		return false
	}
	return r.tid.CompareAndSwap(w, w|lockBit)
}

// Lock spins until the record's commit lock is acquired. Used by the
// reconciliation protocol and by writers that must not abort.
func (r *Record) Lock() {
	for i := 0; ; i++ {
		if r.TryLock() {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// Unlock releases the commit lock without changing the TID. The caller
// must hold the lock.
func (r *Record) Unlock() {
	w := r.tid.Load()
	r.tid.Store(w &^ lockBit)
}

// UnlockWithTID installs a new TID and releases the commit lock in one
// store. The caller must hold the lock.
func (r *Record) UnlockWithTID(tid uint64) {
	r.tid.Store(tid << 1)
}

// SetTID installs tid with the lock released, without going through the
// commit protocol. It exists for recovery preloading, where there is no
// concurrency: replayed records must keep their pre-crash TIDs so that
// post-recovery commits generate strictly larger ones per key.
func (r *Record) SetTID(tid uint64) {
	r.tid.Store(tid << 1)
}

// Locked reports whether the commit lock is currently held.
func (r *Record) Locked() bool {
	return r.tid.Load()&lockBit != 0
}

// Value returns the current value pointer without consistency checking.
// Use ReadConsistent for OCC reads.
func (r *Record) Value() *Value { return r.val.Load() }

// SetValue publishes a new value. The caller must hold the commit lock
// (or otherwise have exclusive write access, as the 2PL engine does).
func (r *Record) SetValue(v *Value) { r.val.Store(v) }

// ReadConsistent performs the Silo read protocol: it returns a value and
// the TID that produced it such that the pair is a consistent snapshot.
// If the record stays locked for the duration of maxSpins attempts, it
// returns ok == false and the caller should abort (the paper's OCC
// "aborts and saves the transaction to try again later" when it sees a
// locked item).
func (r *Record) ReadConsistent(maxSpins int) (v *Value, tid uint64, ok bool) {
	for i := 0; i <= maxSpins; i++ {
		w1 := r.tid.Load()
		if w1&lockBit != 0 {
			continue
		}
		val := r.val.Load()
		w2 := r.tid.Load()
		if w1 == w2 {
			return val, w1 >> 1, true
		}
	}
	return nil, 0, false
}

// CasValue atomically replaces the value pointer if it still equals old.
// The Atomic baseline engine uses it to implement lock-free
// read-modify-write operations ("an atomic increment instruction with no
// other concurrency control", §8.2).
func (r *Record) CasValue(old, new *Value) bool {
	return r.val.CompareAndSwap(old, new)
}

// InstallIfNewer atomically installs (v, tid) when tid is strictly
// greater than the record's current TID, taking the commit lock for the
// duration of the check-and-set. It returns whether it installed.
// Parallel recovery uses it to apply redo records concurrently: per-key
// TIDs are unique and monotone in commit order, so "highest TID wins"
// applied atomically in any order converges to the sequential-replay
// state.
func (r *Record) InstallIfNewer(v *Value, tid uint64) bool {
	r.Lock()
	cur, _ := r.TIDWord()
	if cur >= tid {
		r.Unlock()
		return false
	}
	r.SetValue(v)
	r.UnlockWithTID(tid)
	return true
}

// InstallRecovered installs a snapshot entry (v, tid) during recovery or
// a follower's bootstrap, when segment replay may already have written
// the record. It
// installs unless the record holds state from a strictly newer TID, and
// — unlike InstallIfNewer — also installs at equal TIDs while the
// record is still empty: snapshot entries captured before any commit
// carry TID 0, and a freshly created record is also TID 0, so the
// strict rule would drop them. Redo records always carry TIDs above the
// snapshot's for the same key (they post-date the checkpoint barrier),
// so the highest-TID-wins merge stays order-independent.
func (r *Record) InstallRecovered(v *Value, tid uint64) bool {
	r.Lock()
	cur, _ := r.TIDWord()
	if cur > tid || (cur == tid && r.Value() != nil) {
		r.Unlock()
		return false
	}
	r.SetValue(v)
	r.UnlockWithTID(tid)
	return true
}

// RWMutex exposes the record's 2PL mutex. Only the 2PL engine uses it;
// keeping it on the record mirrors the paper's "per-key locks".
func (r *Record) RWMutex() *sync.RWMutex { return &r.mu }

// Fence installs tok as the record's commit fence. It succeeds when the
// record is unfenced or already fenced with the same token (re-fencing
// by the owner is idempotent, so a cross-shard transaction touching a
// key as both read and write fences it once). tok must be non-zero.
func (r *Record) Fence(tok uint64) bool {
	return r.fence.CompareAndSwap(0, tok) || r.fence.Load() == tok
}

// FenceToken returns the current fence token, zero if unfenced.
func (r *Record) FenceToken() uint64 { return r.fence.Load() }

// Unfence releases the fence if it is held with tok. Releasing an
// already-released or foreign fence is a no-op, so failure-path cleanup
// can release unconditionally.
func (r *Record) Unfence(tok uint64) {
	r.fence.CompareAndSwap(tok, 0)
}
