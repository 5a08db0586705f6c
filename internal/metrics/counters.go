package metrics

import (
	"fmt"
	"sync/atomic"
)

// TxnStats accumulates per-worker transaction outcomes. Workers own one
// each; the harness merges them after a run. The distinction between
// aborts (OCC conflicts, retried with backoff) and stashes (Doppel split
// phase incompatibilities, retried in the next joined phase) mirrors the
// paper's §5 terminology.
//
// Every field is a single-writer atomic: the owning worker is the only
// writer, and anyone may Load (or Merge) while it runs. A merged total
// is therefore a snapshot of counters that each stood at some value
// during the merge, not of one instant.
type TxnStats struct {
	Committed atomic.Uint64 // transactions that committed
	Aborted   atomic.Uint64 // conflict aborts (will be retried)
	Stashed   atomic.Uint64 // split-phase incompatibility stashes (retried later)
	Retries   atomic.Uint64 // extra re-executions beyond a stashed txn's first replay

	// MergeFailures counts reconciliation merges that failed (a split
	// record's global value and its per-core slice had incompatible
	// types), dropping that worker's absorbed slice writes for the
	// record. The record keeps its pre-merge value and TID; a non-zero
	// count means committed split-phase operations were lost.
	MergeFailures atomic.Uint64

	// StashDropped counts stashed transactions abandoned after the
	// drain's replay cap (a pathological livelock: the transaction kept
	// conflict-aborting for over a million consecutive replays). A
	// non-zero count means an accepted transaction never executed.
	StashDropped atomic.Uint64

	// FenceAborts counts attempts that aborted on a commit fence: the
	// transaction touched a record an in-flight cross-shard commit had
	// validated but not yet applied. Like Aborted, these are retried;
	// unlike Aborted they are not conflicts between peers but yields to
	// the cross-shard protocol.
	FenceAborts atomic.Uint64

	ReadLatency  *Hist // commit latency of read-only transactions
	WriteLatency *Hist // commit latency of transactions that wrote
}

// NewTxnStats returns a zeroed TxnStats with allocated histograms.
func NewTxnStats() *TxnStats {
	return &TxnStats{ReadLatency: NewHist(), WriteLatency: NewHist()}
}

// Merge folds other into s. other may be written by its owner
// meanwhile; s must not be.
func (s *TxnStats) Merge(other *TxnStats) {
	if other == nil {
		return
	}
	s.Committed.Add(other.Committed.Load())
	s.Aborted.Add(other.Aborted.Load())
	s.Stashed.Add(other.Stashed.Load())
	s.Retries.Add(other.Retries.Load())
	s.MergeFailures.Add(other.MergeFailures.Load())
	s.StashDropped.Add(other.StashDropped.Load())
	s.FenceAborts.Add(other.FenceAborts.Load())
	s.ReadLatency.Merge(other.ReadLatency)
	s.WriteLatency.Merge(other.WriteLatency)
}

// Reset zeroes all counters and histograms.
func (s *TxnStats) Reset() {
	for _, c := range []*atomic.Uint64{&s.Committed, &s.Aborted, &s.Stashed, &s.Retries,
		&s.MergeFailures, &s.StashDropped, &s.FenceAborts} {
		c.Store(0)
	}
	s.ReadLatency.Reset()
	s.WriteLatency.Reset()
}

// Throughput reports committed transactions per second given an elapsed
// duration in nanoseconds.
func (s *TxnStats) Throughput(elapsedNanos int64) float64 {
	if elapsedNanos <= 0 {
		return 0
	}
	return float64(s.Committed.Load()) / (float64(elapsedNanos) / 1e9)
}

// String summarizes the counters for logs.
func (s *TxnStats) String() string {
	return fmt.Sprintf("committed=%d aborted=%d stashed=%d retries=%d merge_failures=%d stash_dropped=%d fence_aborts=%d",
		s.Committed.Load(), s.Aborted.Load(), s.Stashed.Load(), s.Retries.Load(),
		s.MergeFailures.Load(), s.StashDropped.Load(), s.FenceAborts.Load())
}
