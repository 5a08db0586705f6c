package metrics

import "sync/atomic"

// RouterStats counts a cluster router's activity. All fields are
// atomics: the router updates them from many caller goroutines and
// worker callbacks concurrently. It is the cluster's shared metrics
// sink — every shard's router traffic lands in the one instance the
// cluster owns.
type RouterStats struct {
	// SingleShard counts transactions that routed whole to one shard
	// and committed on the embedded fast path.
	SingleShard atomic.Uint64
	// Reroutes counts single-shard attempts that discovered a key owned
	// by another shard mid-execution and fell back to the cross-shard
	// path. The aborted attempt had no effects.
	Reroutes atomic.Uint64
	// CrossShard counts transactions committed through the two-phase
	// cross-shard protocol.
	CrossShard atomic.Uint64
	// CrossShardReadOnly counts read-only transactions that read other
	// shards' keys in place and committed on their first key's shard,
	// with no 2PC: every foreign read still held its TID, unlocked,
	// unfenced and unsplit after the home commit. They are counted in
	// neither SingleShard nor CrossShard. One whose foreign reads fail
	// that check counts a Reroute and commits through 2PC instead.
	CrossShardReadOnly atomic.Uint64
	// CrossShardRetries counts 2PC rounds that failed prepare
	// validation (a value read during gather had changed) and were
	// retried from scratch.
	CrossShardRetries atomic.Uint64
	// CrossShardAborts counts cross-shard transactions that ended with
	// the body's own error (user abort) instead of committing.
	CrossShardAborts atomic.Uint64
	// CrossShardApplyLost counts per-shard commit applications that
	// failed after the transaction's prepare had validated. With commit
	// fences this is a should-never-fire invariant counter: fenced
	// records cannot change between prepare validation and apply, so a
	// non-zero value means the fence protocol was violated (file a bug).
	CrossShardApplyLost atomic.Uint64
	// FencedKeys counts per-key commit-fence installations by prepare.
	// Each cross-shard commit round fences every key it touches, so the
	// count grows by the transaction's key count per round.
	FencedKeys atomic.Uint64
}

// RouterSnapshot is a point-in-time copy of RouterStats.
type RouterSnapshot struct {
	SingleShard         uint64
	Reroutes            uint64
	CrossShard          uint64
	CrossShardReadOnly  uint64
	CrossShardRetries   uint64
	CrossShardAborts    uint64
	CrossShardApplyLost uint64
	FencedKeys          uint64
}

// Snapshot copies the counters.
func (r *RouterStats) Snapshot() RouterSnapshot {
	return RouterSnapshot{
		SingleShard:         r.SingleShard.Load(),
		Reroutes:            r.Reroutes.Load(),
		CrossShard:          r.CrossShard.Load(),
		CrossShardReadOnly:  r.CrossShardReadOnly.Load(),
		CrossShardRetries:   r.CrossShardRetries.Load(),
		CrossShardAborts:    r.CrossShardAborts.Load(),
		CrossShardApplyLost: r.CrossShardApplyLost.Load(),
		FencedKeys:          r.FencedKeys.Load(),
	}
}
