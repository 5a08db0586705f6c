package core

import (
	"time"

	"doppel/internal/wal"
)

// MaxWorkers is the largest worker count a Config may carry. Commit
// TIDs embed the worker ID in their low 8 bits (see the TID layout in
// this package's doc.go), so more than 256 workers would let two
// workers mint the same TID for different transactions — and recovery's
// highest-TID-wins replay could then pick the wrong value. withDefaults
// caps Config.Workers here.
const MaxWorkers = 256

// Config tunes a Doppel instance. The zero value is not valid; use
// DefaultConfig as a base.
type Config struct {
	// Workers is the number of worker contexts ("one worker thread per
	// core", §3). Values above MaxWorkers are capped: the TID layout
	// reserves only 8 bits for the worker ID.
	Workers int

	// WorkerIDBase offsets the worker IDs embedded in commit TIDs:
	// worker w mints TIDs tagged WorkerIDBase+w. A standalone instance
	// leaves it 0. A sharded deployment gives each shard a disjoint
	// range of the 8-bit ID space so all shards share one TID clock
	// domain — no two shards can ever mint the same TID, which keeps
	// TIDs globally unique for cross-shard ordering and debugging.
	// WorkerIDBase+Workers is capped at MaxWorkers.
	WorkerIDBase int

	// PhaseLength is how often the coordinator changes phase ("usually
	// starts a phase change every 20 milliseconds", §5.4): the longest a
	// joined phase lasts, and the length of a split phase in which
	// nothing is stashed. Zero disables the coordinator: phases advance
	// only via test hooks or Close.
	PhaseLength time.Duration

	// StashBudget bounds how long a stashed transaction waits for the
	// next joined phase: a split phase ends once its first stash is
	// StashBudget old, and the joined phase after it lasts no longer
	// than that split phase did. This is the paper's "hurries the next
	// joined phase" (§5.4) as a latency budget — the phase length trade
	// of Figs. 13/14 and Table 3, paid only while someone waits. Zero
	// uses the default (1 ms).
	StashBudget time.Duration

	// SampleRate samples one in SampleRate conflicts for the classifier
	// (§5.5: "Doppel samples transactions' conflicting record
	// accesses"). 1 records every conflict.
	SampleRate int

	// SplitMinConflicts is the minimum sampled splittable-operation
	// conflict count a key must accumulate during a joined phase to
	// become split data.
	SplitMinConflicts int

	// SplitFraction is the minimum fraction of a joined phase's
	// transaction attempts that must have conflicted on a key (with a
	// splittable operation) for the key to be split.
	SplitFraction float64

	// MaxSplitKeys bounds how many records may be split at once.
	MaxSplitKeys int

	// ReadDominance demotes (or refuses to promote) a key when
	// incompatible accesses dominate: a key is not split if sampled
	// read/Put conflicts exceed ReadDominance times its splittable
	// conflicts, and a split key is demoted when its stashes exceed
	// ReadDominance times its slice writes. This is what keeps
	// read-mostly keys reconciled (the paper's LIKE benchmark does not
	// split below 30% writes, §8.5).
	ReadDominance float64

	// KeepMinWrites demotes a split key whose slice writes fell below
	// this count per PhaseLength of split time (§5.5: "Doppel uses write
	// sampling to estimate if a split record might still be
	// contended"). The classifier judges a key once at least one
	// PhaseLength of split time has accumulated since its last judgment,
	// so split phases cut short by StashBudget do not demote a key the
	// full-length phase would keep. With PhaseLength zero (no
	// coordinator) every decision judges the last split phase alone.
	KeepMinWrites int

	// KeepWriteFraction demotes a split key whose slice writes fall
	// below this fraction of the decision window's transaction
	// attempts, so residual background traffic cannot keep a cooled key
	// split.
	KeepWriteFraction float64

	// MaxSplitExtend is how many times in a row the coordinator may
	// extend a split phase during which nothing was stashed: no
	// transaction is waiting for a joined phase, so a phase change
	// would only cost barrier time.
	MaxSplitExtend int

	// DisableAutoSplit turns the classifier off; only SplitHint-labelled
	// records are split ("Doppel also supports manual data labeling",
	// §5.5).
	DisableAutoSplit bool

	// Redo, when non-nil, receives an asynchronous redo record for every
	// committed global-store write and every reconciliation merge (the
	// paper's §3: "asynchronous batched logging could be added to Doppel
	// without becoming a bottleneck"). Commits do not wait for
	// durability; the caller owns the logger's lifecycle.
	Redo *wal.Logger

	// WALFailStop, with Redo set, refuses to execute new transactions
	// once the logger has failed terminally: every attempt returns an
	// error naming the logger's failure instead of committing in memory
	// only. Without it (the default) commits continue and the failure
	// is visible solely through the logger's Err — acknowledged commits
	// after the failure are then never durable.
	WALFailStop bool

	// SyncCommit, with Redo set, completes a request's commit only once
	// the redo log covers it (see Run): after one wait on the log's
	// group-commit watermark, and for a commit with slice writes after
	// the reconcile that logs them. Attempt, which has no completion,
	// ignores it.
	SyncCommit bool
}

// DefaultConfig returns the paper's configuration for w workers: 20 ms
// phases, a 1 ms stash budget and automatic classification.
func DefaultConfig(w int) Config {
	return Config{
		Workers:           w,
		PhaseLength:       20 * time.Millisecond,
		StashBudget:       time.Millisecond,
		SampleRate:        1,
		SplitMinConflicts: 8,
		SplitFraction:     0.02,
		MaxSplitKeys:      64,
		ReadDominance:     3.0,
		KeepMinWrites:     4,
		KeepWriteFraction: 0.005,
		MaxSplitExtend:    8,
	}
}

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Workers)
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > MaxWorkers {
		c.Workers = MaxWorkers // the TID layout has 8 bits of worker ID
	}
	if c.WorkerIDBase < 0 {
		c.WorkerIDBase = 0
	}
	if c.WorkerIDBase+c.Workers > MaxWorkers {
		// The shared TID clock domain has only 8 bits of worker ID; a
		// shard whose slice would overflow it keeps its base and loses
		// workers (callers validate earlier for a real error).
		c.Workers = MaxWorkers - c.WorkerIDBase
		if c.Workers < 1 {
			c.WorkerIDBase, c.Workers = MaxWorkers-1, 1
		}
	}
	if c.Redo == nil {
		c.SyncCommit = false
	}
	if c.StashBudget <= 0 {
		c.StashBudget = d.StashBudget
	}
	if c.SampleRate < 1 {
		c.SampleRate = d.SampleRate
	}
	if c.SplitMinConflicts < 1 {
		c.SplitMinConflicts = d.SplitMinConflicts
	}
	if c.SplitFraction <= 0 {
		c.SplitFraction = d.SplitFraction
	}
	if c.MaxSplitKeys < 1 {
		c.MaxSplitKeys = d.MaxSplitKeys
	}
	if c.ReadDominance <= 0 {
		c.ReadDominance = d.ReadDominance
	}
	if c.KeepMinWrites < 1 {
		c.KeepMinWrites = d.KeepMinWrites
	}
	if c.KeepWriteFraction <= 0 {
		c.KeepWriteFraction = d.KeepWriteFraction
	}
	if c.MaxSplitExtend == 0 {
		c.MaxSplitExtend = d.MaxSplitExtend
	} else if c.MaxSplitExtend < 0 {
		c.MaxSplitExtend = 0 // negative disables split-phase extension
	}
	return c
}
