package doppel

import (
	"errors"
	"fmt"
	"time"

	"doppel/internal/core"
)

// Options configures Open.
type Options struct {
	// Workers is the number of worker goroutines (the paper's
	// one-worker-per-core model). 0 means 4.
	Workers int
	// PhaseLength is the coordinator's phase-change interval; the paper
	// uses 20ms. 0 means 20ms.
	PhaseLength time.Duration
	// Engine overrides internal classifier knobs; leave zero-valued
	// unless benchmarking.
	Engine core.Config
	// RedoLog, when non-empty, names a durability directory and enables
	// asynchronous group-commit redo logging into it (the durability
	// design the paper cites as future work). Commits are acknowledged
	// from memory. Their redo records reach disk in group commits,
	// synced at once when someone waits on them (SyncCommit, a
	// checkpoint, Close) and otherwise at most every 2 ms: an
	// acknowledged commit becomes durable, and a disk failure behind it
	// visible to WALFailStop, within 2 ms plus two batch fsyncs (the
	// one in flight at the commit, then its own).
	// Followers apply only what the log has synced, so they see a commit
	// up to that long after its acknowledgement.
	//
	// The directory holds numbered WAL segments, snapshot files and a
	// MANIFEST; use Recover to rebuild a database from it. Reopening an
	// existing directory appends — it never truncates logged data. The
	// directory is also the replication feed: OpenFollower tails it to
	// serve read replicas, with no further primary-side configuration.
	//
	// For OpenCluster the value is a per-shard template that must
	// contain a %d verb (e.g. "data/shard-%d"): each shard logs and
	// checkpoints into its own directory.
	RedoLog string
	// CheckpointEvery, when non-zero, checkpoints the database at this
	// interval: a consistent snapshot is captured incrementally starting
	// at a quiesced phase boundary (the pause is O(1); the store walk
	// runs concurrently with traffic, copy-on-write), the WAL rotates to
	// a fresh segment, and segments covered by the snapshot are deleted.
	// This bounds both recovery time and log disk usage. Requires
	// RedoLog. Checkpoint() forces one manually.
	CheckpointEvery time.Duration
	// MaxSegmentBytes, when non-zero, caps a WAL segment at this many
	// bytes, independent of checkpoints: a group commit that would pass
	// it is cut at a record boundary and continues in a new segment (a
	// single larger record gets a segment of its own). Bounded segments keep any single log
	// file small between checkpoints and give parallel recovery units of
	// work. Requires RedoLog.
	MaxSegmentBytes int64
	// SyncCommit makes Exec/ExecAsync acknowledge a commit only once its
	// redo record is written and fsynced: an acknowledged commit then
	// survives any crash. The worker waits on the log's group-commit
	// watermark, which makes the log sync at once, so the transactions
	// it acknowledges together share one fsync. A split-phase
	// commutative write is logged only when reconciliation merges the
	// per-core slices, so its acknowledgement is held, with the worker
	// serving its queue meanwhile, until the worker has reconciled at
	// the next phase transition. Off by default: the paper's design (§3)
	// acknowledges from memory and logs asynchronously. Requires
	// RedoLog.
	SyncCommit bool
	// ScrubEvery, when non-zero, runs a background scrub of the redo
	// log's sealed segments at this interval: each pass re-decodes every
	// live sealed segment and cross-checks it against the manifest's
	// sealed metadata — the validation recovery would perform, run while
	// the database is healthy instead of at the moment the data is
	// needed. Damage surfaces in Stats.ScrubError (and via ScrubWAL,
	// which forces a pass manually). Scrubbing only reads; it never
	// repairs or deletes. Requires RedoLog.
	ScrubEvery time.Duration
	// WALFailStop makes the database refuse new transactions once the
	// redo logger has failed terminally (disk gone, write error):
	// Exec/ExecAsync then return the logger's error instead of
	// acknowledging commits that can never be durable. This covers
	// stashed transactions too — a transaction stashed before the
	// failure whose replay was refused reports the logger error, not
	// success. Without the option the database keeps serving from
	// memory and the failure is visible only via WALErr /
	// Stats.RedoLogError. Requires RedoLog.
	WALFailStop bool

	// workerIDBase namespaces this instance's worker IDs inside the
	// shared TID clock domain: the IDs embedded in commit TIDs run from
	// workerIDBase to workerIDBase+Workers-1. Zero for a standalone
	// database; OpenCluster assigns each shard a disjoint range so no
	// two shards can mint the same TID.
	workerIDBase int
}

// Validate reports every way the option combination is invalid, not
// just the first: the violations are joined with errors.Join, so
// errors.Is(err, ErrRequiresRedoLog) matches when any option demanded a
// durability directory. A nil return means Open/OpenErr/Recover (and
// OpenCluster, which validates the per-shard template) will not reject
// the options on consistency grounds; opening the redo log itself can
// still fail.
func (o Options) Validate() error {
	var errs []error
	if o.RedoLog == "" {
		for _, v := range []struct {
			name string
			set  bool
		}{
			{"CheckpointEvery", o.CheckpointEvery > 0},
			{"MaxSegmentBytes", o.MaxSegmentBytes > 0},
			{"SyncCommit", o.SyncCommit},
			{"ScrubEvery", o.ScrubEvery > 0},
			{"WALFailStop", o.WALFailStop},
		} {
			if v.set {
				errs = append(errs, fmt.Errorf("%s: %w", v.name, ErrRequiresRedoLog))
			}
		}
	}
	if o.Workers < 0 {
		errs = append(errs, fmt.Errorf("doppel: negative Workers (%d)", o.Workers))
	}
	return errors.Join(errs...)
}

// resolve normalizes the options into their effective values and the
// engine configuration Open builds: worker-count defaulting and
// capping, phase-length defaulting, and durability plumbing all live
// here so every construction path (Open, OpenErr, Recover, OpenCluster)
// resolves identically. It assumes Validate passed.
func (o Options) resolve() (Options, core.Config) {
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > core.MaxWorkers {
		// Commit TIDs carry an 8-bit worker ID (see internal/core's
		// doc.go); more workers would mint colliding TIDs.
		workers = core.MaxWorkers
	}
	if o.workerIDBase+workers > core.MaxWorkers {
		// The instance shares its TID clock domain (a cluster): its slice
		// of the 8-bit ID space is what remains above the base.
		workers = core.MaxWorkers - o.workerIDBase
	}
	o.Workers = workers
	cfg := o.Engine
	cfg.Workers = workers
	cfg.WorkerIDBase = o.workerIDBase
	cfg.WALFailStop, cfg.SyncCommit = o.WALFailStop, o.SyncCommit
	if cfg.PhaseLength == 0 {
		cfg.PhaseLength = o.PhaseLength
	}
	if cfg.PhaseLength == 0 {
		cfg.PhaseLength = 20 * time.Millisecond
	}
	return o, cfg
}
