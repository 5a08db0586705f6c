package doppel

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"doppel/internal/repl"
	"doppel/internal/wal"
)

// LogPosition is a durable byte position in a redo-log directory: a
// segment sequence number and an offset within it. Unlike LSNs — which
// are session-local counters — a LogPosition names the same bytes to
// every process reading the directory, so a primary's durable position
// and a replica's applied position are directly comparable; replication
// lag is the distance between them.
type LogPosition = wal.Position

// ParseLogPosition parses the "seq:offset" form LogPosition.String
// renders — the wire shape of a read-your-writes token: a client takes
// the primary's LogPosition after a write, hands the string to a
// follower, and the follower blocks the read with WaitPosition until it
// has applied at least that far.
func ParseLogPosition(s string) (LogPosition, error) {
	var p LogPosition
	if n, err := fmt.Sscanf(s, "%d:%d", &p.Seq, &p.Offset); n != 2 || err != nil {
		return LogPosition{}, fmt.Errorf("doppel: malformed log position %q", s)
	}
	if p.Offset < 0 {
		return LogPosition{}, fmt.Errorf("doppel: malformed log position %q", s)
	}
	return p, nil
}

// FollowerOptions tunes OpenFollower.
type FollowerOptions struct {
	// PollInterval is how often the replica polls the log for new
	// records; values <= 0 mean 1ms. Lag is bounded below by this plus
	// the primary's group-commit latency.
	PollInterval time.Duration
	// StateDir, when set, enables follower-side checkpointing: the
	// replica periodically persists its materialized store plus the log
	// position it is consistent with, and a restart with the same
	// StateDir resumes there, replaying only the log suffix written
	// since — bounded work instead of the whole post-snapshot log. The
	// directory is created if needed; it must be distinct from the
	// primary's log directory and private to this replica.
	StateDir string
	// CheckpointEvery is how many applied records between follower
	// checkpoints; <= 0 with StateDir set means 4096.
	CheckpointEvery int
}

// Replica is a read-only database continuously rebuilt from a primary's
// redo-log directory: it bootstraps from the latest checkpoint exactly
// as recovery would, then tails the segments, applying each record
// under the per-key highest-TID-wins rule. Reads run through View at a
// consistent applied-LSN watermark. The primary needs no replication
// configuration — any database with Options.RedoLog set can be
// followed, live or after it has exited.
type Replica struct {
	f      *repl.Follower
	dir    string
	closed atomic.Bool
}

// OpenFollower opens a replica over the redo-log directory at dir. The
// directory may be empty or not yet created — the replica then waits
// for the primary's first append. OpenFollower takes no lock on the
// directory, so any number of replicas can follow one primary.
func OpenFollower(dir string, opts FollowerOptions) (*Replica, error) {
	f, err := repl.Open(dir, repl.Options{
		Poll:            opts.PollInterval,
		StateDir:        opts.StateDir,
		CheckpointEvery: opts.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Replica{f: f, dir: dir}, nil
}

// View runs fn against the replica frozen at its applied watermark:
// every read inside fn observes the same prefix of the primary's log,
// whole transactions only. It returns the watermark LSN the view ran
// at. Write operations inside fn fail with ErrReadOnly; fn's error is
// returned as-is otherwise.
func (r *Replica) View(fn TxFunc) (uint64, error) {
	if r.closed.Load() {
		return 0, ErrClosed
	}
	return r.f.View(fn)
}

// ExecAsync implements the server backend interface by running fn as a
// View on the caller's goroutine; writes fail with ErrReadOnly. This is
// what lets doppel-server -follow serve the read half of its procedure
// set from a replica unchanged.
func (r *Replica) ExecAsync(fn TxFunc, done func(error)) {
	if r.closed.Load() {
		done(ErrClosed)
		return
	}
	_, err := r.f.View(fn)
	done(err)
}

// AppliedLSN returns the applied-record watermark: how many redo
// records the replica has installed, in log order. Against a primary
// whose log the replica followed from empty, it equals the primary's
// LSN for the same record, so DurableLSN minus AppliedLSN is the
// replication lag in records.
func (r *Replica) AppliedLSN() uint64 { return r.f.AppliedLSN() }

// Position returns the log byte position the replica has applied to;
// compare with the primary's LogPosition.
func (r *Replica) Position() LogPosition { return r.f.Position() }

// WaitPosition blocks until the replica's applied position reaches at
// least pos (typically the primary's LogPosition), the replica fails,
// or ctx expires.
func (r *Replica) WaitPosition(ctx context.Context, pos LogPosition) error {
	return r.f.WaitPosition(ctx, pos)
}

// Err returns the replica's terminal tail failure, if any. A non-nil
// result means applying has stopped for good: sealed-segment or
// manifest corruption the replica will not paper over. Falling behind a
// checkpoint's segment garbage collection is NOT terminal — the replica
// re-bootstraps itself from the newest snapshot automatically (counted
// in ReplicaStats.Rebootstraps).
func (r *Replica) Err() error { return r.f.Err() }

// ReplicaStats is a point-in-time summary of replica progress.
type ReplicaStats struct {
	// AppliedLSN is the applied-record watermark.
	AppliedLSN uint64
	// Position is the applied log byte position.
	Position LogPosition
	// SnapshotEntries is how many records the bootstrap snapshot held.
	SnapshotEntries int
	// Polls counts tail polls; Records counts records applied.
	Polls   uint64
	Records uint64
	// ManifestReads and SegmentOpens count tail I/O beyond the open
	// segment; both stay constant while the replica idles on an
	// unchanged segment.
	ManifestReads uint64
	SegmentOpens  uint64
	// Rebootstraps counts self-heals: times the replica fell behind a
	// checkpoint GC and rebuilt itself from the newest snapshot. The
	// applied watermark is never reset by a re-bootstrap (it undercounts
	// the primary's LSN afterward), and Position stays monotone.
	Rebootstraps uint64
	// Checkpoints counts follower-side checkpoints written to StateDir;
	// Resumed reports whether this replica started from StateDir state
	// instead of a full bootstrap.
	Checkpoints uint64
	Resumed     bool
	// TailError is the terminal tail failure, "" while healthy.
	TailError string
}

// Stats returns replica progress counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.f.Stats()
	return ReplicaStats{
		AppliedLSN:      s.AppliedLSN,
		Position:        s.Position,
		SnapshotEntries: s.SnapshotEntries,
		Polls:           s.Tail.Polls,
		Records:         s.Tail.Records,
		ManifestReads:   s.Tail.ManifestReads,
		SegmentOpens:    s.Tail.SegmentOpens,
		Rebootstraps:    s.Rebootstraps,
		Checkpoints:     s.Checkpoints,
		Resumed:         s.Resumed,
		TailError:       s.Err,
	}
}

// Close stops the replica's tail loop. It does not touch the log.
func (r *Replica) Close() {
	if r.closed.Swap(true) {
		return
	}
	_ = r.f.Close()
}

// Promote turns the replica into a writable database over the same
// directory, in place. It fences out the primary by taking the log
// directory's exclusive lock — failing cleanly, replica intact, if the
// primary still holds it — then drains the log to its end and reopens
// it for appending over the already-materialized store, exactly
// recovery's resume path: reopening trims any torn tail (the "seal"),
// so every acknowledged record survives and logging continues where the
// primary stopped. The replica is consumed: it stops tailing and
// further Views return ErrClosed; use the returned DB. opts.RedoLog is
// overridden with the replica's directory.
//
// Promote assumes a single administrator: between the final drain and
// the returned DB's logger taking over, the directory lock is briefly
// released, so a concurrently restarted primary could slip in. That
// race is operational (two actors deciding to own one directory), not
// one the database can arbitrate.
func (r *Replica) Promote(opts Options) (*DB, error) {
	lock, err := wal.AcquireDirLock(r.dir)
	if err != nil {
		return nil, fmt.Errorf("doppel: promote: primary still owns %s: %w", r.dir, err)
	}
	if r.closed.Swap(true) {
		lock.Release()
		return nil, ErrClosed
	}
	if _, err := r.f.Drain(); err != nil {
		lock.Release()
		return nil, fmt.Errorf("doppel: promote: drain: %w", err)
	}
	lock.Release()
	opts.RedoLog = r.dir
	db, err := openInto(opts, r.f.Store())
	if err != nil {
		return nil, err
	}
	return db, nil
}
