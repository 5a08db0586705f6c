package router

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
)

// Partitioner maps keys to shards. Implementations must be pure and
// safe for concurrent use: the router calls Shard on every operation of
// every transaction, from many goroutines at once, and routing breaks
// if the same key ever maps to two different shards.
type Partitioner interface {
	// Shard returns the owning shard for key, in [0, shards).
	Shard(key string, shards int) int
}

// HashPartitioner is the default Partitioner: FNV-1a over the key bytes,
// reduced modulo the shard count. FNV is stable across processes and
// restarts, which a persistent cluster needs — each shard's redo log
// must replay into the same shard that wrote it.
type HashPartitioner struct{}

// Shard implements Partitioner.
func (HashPartitioner) Shard(key string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// SeededPartitioner hashes with a per-process random seed
// (hash/maphash). It is hostile-key resistant but NOT stable across
// restarts, so it is only safe for purely in-memory clusters.
type SeededPartitioner struct {
	seed maphash.Seed
	once sync.Once
}

// Shard implements Partitioner.
func (p *SeededPartitioner) Shard(key string, shards int) int {
	p.once.Do(func() { p.seed = maphash.MakeSeed() })
	return int(maphash.String(p.seed, key) % uint64(shards))
}

// Shard is the per-shard database surface the router drives. The
// cluster wraps each *doppel.DB in a backend satisfying it
// (doppel.TxFunc aliases engine.TxFunc).
type Shard interface {
	ExecContext(ctx context.Context, fn engine.TxFunc) error
	ExecAsync(fn engine.TxFunc, done func(error))
	// Store exposes the shard's record store. The cross-shard prepare
	// works at record level: it installs commit fences and reads
	// validation snapshots directly, without consuming a shard worker.
	Store() *store.Store
	// SplitActive reports whether key is split data in the shard's
	// current phase — its global record then lags the per-core slices,
	// so a prepare-time snapshot of it is not committed state.
	SplitActive(key string) bool
	// WakeAll wakes every shard worker; the router calls it after
	// releasing the shard's commit fences, so requests parked on those
	// fences are retried.
	WakeAll()
}

// errCrossShard aborts a single-shard attempt that touched a key owned
// by another shard. It surfaces as a user abort inside the shard engine
// — the attempt has no effects — and the router translates it into a
// cross-shard re-execution rather than returning it to the caller.
var errCrossShard = errors.New("router: transaction touched a key on another shard")

// Router routes transactions across a fixed set of shards. See the
// package comment for the protocol.
type Router struct {
	shards []Shard
	part   Partitioner
	stats  *metrics.RouterStats

	// locks are the per-shard commit locks of the cross-shard protocol.
	// Only cross-shard transactions take them (ascending shard ID);
	// single-shard traffic never touches them.
	locks []sync.Mutex

	// calls pools routedCall frames so the single-shard path allocates
	// nothing in steady state.
	calls sync.Pool

	// fenceSeq generates commit-fence tokens. Tokens only need to be
	// unique among in-flight cross-shard commits, but a global counter is
	// one uncontended atomic per commit and never recycles early.
	fenceSeq atomic.Uint64

	// noFences disables commit-fence installation; see
	// SetNoFencesForTesting.
	noFences bool
}

// SetNoFencesForTesting disables commit-fence installation, reverting
// prepare to pure value validation — reopening the prepare→apply
// lost-update window. It exists so the conservation stress test can
// demonstrate the bug the fences close; production code never calls
// it. Call it before any traffic.
func (r *Router) SetNoFencesForTesting(off bool) { r.noFences = off }

// New builds a router over shards. A nil part defaults to
// HashPartitioner; a nil stats allocates a private sink.
func New(shards []Shard, part Partitioner, stats *metrics.RouterStats) *Router {
	if len(shards) == 0 {
		panic("router: no shards")
	}
	if part == nil {
		part = HashPartitioner{}
	}
	if stats == nil {
		stats = &metrics.RouterStats{}
	}
	r := &Router{
		shards: shards,
		part:   part,
		stats:  stats,
		locks:  make([]sync.Mutex, len(shards)),
	}
	r.calls.New = func() any { return newRoutedCall(r) }
	return r
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// ShardOf returns the shard that owns key.
func (r *Router) ShardOf(key string) int { return r.part.Shard(key, len(r.shards)) }

// Stats snapshots the router's counters.
func (r *Router) Stats() metrics.RouterSnapshot { return r.stats.Snapshot() }

// ExecContext runs fn to completion: single-shard fast path first,
// cross-shard protocol if the body turns out to span shards. ctx
// cancellation is honored while queued on a shard and between
// cross-shard rounds.
func (r *Router) ExecContext(ctx context.Context, fn engine.TxFunc) error {
	rc := r.calls.Get().(*routedCall)
	shard := rc.route(fn)
	err := r.shards[shard].ExecContext(ctx, rc.run)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The shard may still be executing rc.run: the frame cannot be
		// pooled (or even read) safely. Abandon it to the GC.
		return err
	}
	crossed, foreign := rc.outcome(err)
	rc.release()
	switch {
	case err == nil && !foreign:
		r.countCommit(crossed)
		return nil
	case errors.Is(err, errCrossShard) || foreign:
		// foreign with err == nil happens when a foreign read failed
		// validation after the home commit, or on a shard that drops a
		// stash replay's error (core's Attempt does).
		r.stats.Reroutes.Add(1)
		return r.execCross(ctx, fn)
	default:
		return err
	}
}

// countCommit counts a transaction committed on its home shard: a
// single-shard one, or a read-only one whose foreign reads (crossed)
// validated after the home commit.
func (r *Router) countCommit(crossed bool) {
	if crossed {
		r.stats.CrossShardReadOnly.Add(1)
	} else {
		r.stats.SingleShard.Add(1)
	}
}

// ExecAsync is ExecContext's callback form, mirroring DB.ExecAsync:
// done is invoked exactly once, possibly synchronously, and must not
// block or submit further transactions synchronously. A cross-shard
// fallback runs on a fresh goroutine so the shard worker that detected
// it is never captured.
func (r *Router) ExecAsync(fn engine.TxFunc, done func(error)) {
	rc := r.calls.Get().(*routedCall)
	shard := rc.route(fn)
	rc.done = done
	r.shards[shard].ExecAsync(rc.run, rc.complete)
}

// execCrossAsync runs fn through the cross-shard protocol and reports
// the outcome to done.
func (r *Router) execCrossAsync(fn engine.TxFunc, done func(error)) {
	done(r.execCross(context.Background(), fn))
}
