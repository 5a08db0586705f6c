package repl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"doppel/internal/checkpoint"
	"doppel/internal/engine"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// ErrReadOnly reports a write operation attempted inside a replica
// view. Replicas apply only what the primary's log tells them to; a
// local write would diverge and be silently overwritten by replay.
var ErrReadOnly = errors.New("repl: replica is read-only")

// ErrStopped reports an operation on a Follower whose tail loop has
// stopped (Close or Drain).
var ErrStopped = errors.New("repl: follower stopped")

// Options tunes a Follower.
type Options struct {
	// Poll is the tail polling interval; values <= 0 mean 1ms.
	Poll time.Duration
	// StateDir, when set, enables follower-side checkpointing: the
	// follower periodically persists its materialized store plus the log
	// position it is consistent with, and a restart resumes from that
	// state, replaying only the suffix after it instead of the whole
	// post-snapshot log. The directory is created if needed and must not
	// be the primary's log directory.
	StateDir string
	// CheckpointEvery is how many applied records between follower
	// checkpoints; <= 0 with StateDir set means 4096. Ignored without
	// StateDir.
	CheckpointEvery int
}

// Stats is a point-in-time snapshot of a Follower's progress.
type Stats struct {
	// AppliedLSN is the follower's applied-record watermark.
	AppliedLSN uint64
	// Position is the log byte position the follower has consumed to.
	Position wal.Position
	// SnapshotEntries is how many records the bootstrap snapshot held.
	SnapshotEntries int
	// Tail carries the cursor's cumulative I/O counters.
	Tail wal.TailStats
	// Rebootstraps counts self-heals: times the tail fell behind a
	// checkpoint GC and the follower rebuilt itself from the newest
	// primary snapshot.
	Rebootstraps uint64
	// Checkpoints counts follower-side checkpoints written to StateDir.
	Checkpoints uint64
	// Resumed reports whether this follower started from StateDir state
	// rather than a full bootstrap.
	Resumed bool
	// Err is the terminal tail error, "" while healthy.
	Err string
}

// Follower replays a primary's redo log into a local store as the log
// grows, and serves reads frozen at its applied watermark. See doc.go
// for the invariants it maintains.
type Follower struct {
	dir  string
	st   *store.Store
	cur  *wal.Cursor
	poll time.Duration

	// Follower-side checkpointing state; all fields below are owned by
	// the tail goroutine except the counters mirrored under mu.
	stateDir     string
	ckptEvery    int
	sinceCkpt    int
	ckpts        uint64
	lastSnapName string
	resumed      bool

	rebootstraps atomic.Uint64

	snapshotEntries int

	// applyMu orders record application against views: the apply loop
	// write-locks around each record's installs plus the watermark
	// advance, so a View (read lock) always observes whole records and a
	// watermark no older than anything it read.
	applyMu sync.RWMutex
	applied atomic.Uint64
	pos     atomic.Pointer[wal.Position]

	// mu guards the terminal error and the cursor-stats mirror (the
	// cursor itself is owned by the tail loop, then by Drain).
	mu        sync.Mutex
	tailStats wal.TailStats
	termErr   error

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Open starts a follower over the log directory at dir. With no (or
// unusable) StateDir state it loads the checkpoint snapshot the
// manifest names exactly as recovery would, then begins tailing the
// segments; with valid StateDir state it resumes from its own snapshot
// and replays only the log suffix after it. The primary may be live or
// absent; a missing or empty directory simply waits for the primary's
// first append.
func Open(dir string, opts Options) (*Follower, error) {
	poll := opts.Poll
	if poll <= 0 {
		poll = time.Millisecond
	}
	f := &Follower{
		dir:       dir,
		poll:      poll,
		stateDir:  opts.StateDir,
		ckptEvery: opts.CheckpointEvery,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if f.stateDir != "" {
		if f.ckptEvery <= 0 {
			f.ckptEvery = 4096
		}
		if err := os.MkdirAll(f.stateDir, 0o755); err != nil {
			return nil, err
		}
		if ok, err := f.tryResume(); err != nil {
			return nil, err
		} else if !ok {
			if err := f.bootstrapFresh(); err != nil {
				return nil, err
			}
		}
	} else if err := f.bootstrapFresh(); err != nil {
		return nil, err
	}
	p := f.cur.Position()
	f.pos.Store(&p)
	go f.loop()
	return f, nil
}

// bootstrapFresh builds the follower from the primary's newest
// checkpoint snapshot, exactly as recovery would.
func (f *Follower) bootstrapFresh() error {
	cur, man, err := wal.OpenCursor(f.dir)
	if err != nil {
		return err
	}
	st := store.New()
	n, err := checkpoint.LoadSnapshot(f.dir, man, st)
	if err != nil {
		cur.Close()
		return err
	}
	f.st, f.cur, f.snapshotEntries = st, cur, n
	return nil
}

// tryResume rebuilds the follower from its own StateDir checkpoint. A
// missing state file, or a resume position the primary has since
// garbage-collected, reports ok=false so the caller bootstraps fresh;
// corrupt state or snapshot files are errors (silently discarding them
// could hide real damage).
func (f *Follower) tryResume() (bool, error) {
	s, ok, err := readState(f.stateDir)
	if err != nil || !ok {
		return false, err
	}
	cur, err := wal.OpenCursorAt(f.dir, s.Pos)
	if err != nil {
		if errors.Is(err, wal.ErrTailGCed) {
			return false, nil // fell behind while down; full bootstrap
		}
		return false, err
	}
	st := store.New()
	n, err := loadSnapshotFile(f.stateDir, s.Snapshot, st)
	if err != nil {
		cur.Close()
		return false, err
	}
	f.st, f.cur, f.snapshotEntries = st, cur, n
	f.applied.Store(s.Applied)
	f.ckpts = s.Ckpts
	f.lastSnapName = s.Snapshot
	f.resumed = true
	return true, nil
}

// loop is the tail goroutine: poll, apply, checkpoint, publish, until
// stopped or a terminal error. Falling behind a checkpoint GC
// (ErrTailGCed) is not terminal: the follower re-bootstraps itself from
// the primary's newest snapshot and keeps going.
func (f *Follower) loop() {
	defer close(f.done)
	t := time.NewTicker(f.poll)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			n, err := f.pollOnce()
			if err != nil {
				if errors.Is(err, wal.ErrTailGCed) {
					err = f.rebootstrap()
				}
				if err != nil {
					f.mu.Lock()
					f.termErr = err
					f.mu.Unlock()
					return
				}
				continue
			}
			f.maybeCheckpoint(n)
		}
	}
}

// rebootstrap rebuilds the follower in place from the primary's newest
// checkpoint snapshot after the tail fell behind a segment GC. The
// applied watermark is never reset — it keeps counting records this
// follower has installed (so it undercounts the primary's LSN from now
// on) — and Position is monotone: the new cursor starts at the
// snapshot's segment, which is strictly after the GCed one. Views keep
// working throughout; the store swap is atomic under applyMu.
func (f *Follower) rebootstrap() error {
	cur, man, err := wal.OpenCursor(f.dir)
	if err != nil {
		return err
	}
	st := store.New()
	n, err := checkpoint.LoadSnapshot(f.dir, man, st)
	if err != nil {
		cur.Close()
		return err
	}
	old := f.cur
	f.applyMu.Lock()
	f.st = st
	f.applyMu.Unlock()
	f.cur = cur
	p := cur.Position()
	f.pos.Store(&p)
	_ = old.Close()
	f.mu.Lock()
	f.snapshotEntries = n
	f.mu.Unlock()
	f.rebootstraps.Add(1)
	// Persist the new baseline promptly: the old StateDir snapshot now
	// predates the GC and would be rejected on restart anyway.
	f.sinceCkpt = f.ckptEvery
	return nil
}

// maybeCheckpoint persists the follower's state to StateDir once enough
// records have been applied since the last checkpoint. The tail
// goroutine is the only store writer, so between applies the store is
// quiescent and the snapshot is exactly consistent with the cursor
// position; concurrent Views only read. A failed checkpoint is not
// terminal — the previous state remains valid, and the next interval
// retries.
func (f *Follower) maybeCheckpoint(applied int) {
	if f.stateDir == "" {
		return
	}
	f.sinceCkpt += applied
	if f.sinceCkpt < f.ckptEvery {
		return
	}
	name := fmt.Sprintf("snap-%06d", f.ckpts+1)
	if _, err := writeSnapshotFile(f.stateDir, name, f.st); err != nil {
		return
	}
	s := followerState{
		Snapshot: name,
		Pos:      f.cur.Position(),
		Applied:  f.applied.Load(),
		Ckpts:    f.ckpts + 1,
	}
	if err := writeState(f.stateDir, s); err != nil {
		_ = os.Remove(filepath.Join(f.stateDir, name))
		return
	}
	if f.lastSnapName != "" && f.lastSnapName != name {
		_ = os.Remove(filepath.Join(f.stateDir, f.lastSnapName))
	}
	f.lastSnapName = name
	f.mu.Lock()
	f.ckpts++
	f.mu.Unlock()
	f.sinceCkpt = 0
}

// pollOnce applies everything newly visible and publishes the resulting
// position and stats, returning how many records it applied.
func (f *Follower) pollOnce() (int, error) {
	n, err := f.cur.Next(f.applyRecord)
	p := f.cur.Position()
	f.pos.Store(&p)
	f.mu.Lock()
	f.tailStats = f.cur.Stats()
	f.mu.Unlock()
	return n, err
}

// applyRecord installs one redo record's ops under the per-key
// highest-TID-wins rule and advances the applied watermark, all inside
// one applyMu critical section — a concurrent View sees either none or
// all of the record, and any view that observes one of its writes
// observes a watermark at or above its LSN.
//
//doppel:hotpath
func (f *Follower) applyRecord(rec wal.Record) error {
	f.applyMu.Lock()
	defer f.applyMu.Unlock()
	for _, op := range rec.Ops {
		sr, _ := f.st.GetOrCreate(op.Key)
		// Optimistic staleness check before paying for the decode, as in
		// checkpoint replay; InstallRecovered re-validates under the
		// record lock.
		if tid, _ := sr.TIDWord(); tid > rec.TID {
			continue
		}
		v, err := store.DecodeValue(op.Value)
		if err != nil {
			return fmt.Errorf("repl: corrupt redo value for %q: %w", op.Key, err)
		}
		sr.InstallRecovered(v, rec.TID)
	}
	f.applied.Add(1)
	return nil
}

// View runs fn against the replica frozen at its applied watermark:
// application is held off for the duration, so every read observes the
// same log prefix. It returns the watermark LSN the view ran at —
// exactly how many records had been applied when fn's reads executed.
// Write operations inside fn fail with ErrReadOnly.
func (f *Follower) View(fn engine.TxFunc) (uint64, error) {
	f.applyMu.RLock()
	defer f.applyMu.RUnlock()
	err := fn(engine.NewTx(readTx{st: f.st}))
	return f.applied.Load(), err
}

// AppliedLSN returns the applied-record watermark: how many redo
// records the follower has installed, in log order. For a log written
// by a single primary session it equals the primary's LSN for the same
// record, making Durable()-vs-AppliedLSN the replication lag in
// records.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// Position returns the log byte position the follower has consumed to;
// it is directly comparable with the primary's DurablePosition across
// primary restarts.
func (f *Follower) Position() wal.Position { return *f.pos.Load() }

// SnapshotEntries returns how many records the bootstrap snapshot held
// (refreshed when a re-bootstrap loads a newer one).
func (f *Follower) SnapshotEntries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshotEntries
}

// Store exposes the replica's store for equivalence checks; callers
// must treat it as read-only. A re-bootstrap replaces the store, so
// hold no reference across polls when GC is possible.
func (f *Follower) Store() *store.Store {
	f.applyMu.RLock()
	defer f.applyMu.RUnlock()
	return f.st
}

// Err returns the tail loop's terminal error, if any. A non-nil result
// means the follower has stopped applying (sealed-segment corruption,
// manifest damage, or its position was garbage-collected) and must be
// rebuilt from the current checkpoint.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.termErr
}

// Stats returns a point-in-time progress snapshot.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	ts, terr := f.tailStats, f.termErr
	snapN, ckpts := f.snapshotEntries, f.ckpts
	f.mu.Unlock()
	s := Stats{
		AppliedLSN:      f.applied.Load(),
		Position:        f.Position(),
		SnapshotEntries: snapN,
		Tail:            ts,
		Rebootstraps:    f.rebootstraps.Load(),
		Checkpoints:     ckpts,
		Resumed:         f.resumed,
	}
	if terr != nil {
		s.Err = terr.Error()
	}
	return s
}

// WaitPosition blocks until the follower's applied position reaches at
// least pos, the follower stops or fails, or ctx expires.
func (f *Follower) WaitPosition(ctx context.Context, pos wal.Position) error {
	for {
		if !f.Position().Less(pos) {
			return nil
		}
		if err := f.Err(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.done:
			// One last check: the loop may have stopped after reaching pos.
			if !f.Position().Less(pos) {
				return nil
			}
			if err := f.Err(); err != nil {
				return err
			}
			return ErrStopped
		case <-time.After(f.poll):
		}
	}
}

// stopLoop halts the tail goroutine and waits for it to exit.
func (f *Follower) stopLoop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Close stops the tail loop and releases the cursor. It does not drain:
// records not yet applied stay in the log.
func (f *Follower) Close() error {
	f.stopLoop()
	return f.cur.Close()
}

// Drain stops the periodic tail loop and synchronously applies every
// record still visible in the log, returning the final position. The
// caller must fence out the primary first (hold the directory lock);
// otherwise new records can land after the final read. The follower no
// longer tails afterwards, but View keeps working — promotion reads the
// drained store through it.
func (f *Follower) Drain() (wal.Position, error) {
	f.stopLoop()
	if err := f.Err(); err != nil {
		return f.Position(), err
	}
	for {
		n, err := f.pollOnce()
		if err != nil {
			f.mu.Lock()
			f.termErr = err
			f.mu.Unlock()
			return f.Position(), err
		}
		if n == 0 {
			return f.Position(), nil
		}
	}
}
