package doppel

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"doppel/internal/core"
	"doppel/internal/metrics"
	"doppel/internal/router"
	"doppel/internal/store"
)

// Partitioner maps keys to shards; see OpenCluster. Implementations
// must be pure and safe for concurrent use, and — for a durable cluster
// — stable across restarts, so each shard's log replays into the shard
// that wrote it.
type Partitioner = router.Partitioner

// HashPartitioner is the default Partitioner: FNV-1a over the key,
// stable across processes and restarts.
type HashPartitioner = router.HashPartitioner

// RouterStats counts a cluster's routing activity.
type RouterStats struct {
	// SingleShard is transactions that ran whole on one shard's
	// embedded fast path — the common case.
	SingleShard uint64
	// Reroutes is single-shard attempts that touched a second shard's
	// key mid-execution and re-ran on the cross-shard path. The aborted
	// attempt had no effects.
	Reroutes uint64
	// CrossShard is transactions committed via two-phase commit.
	CrossShard uint64
	// CrossShardReadOnly is read-only transactions that read other
	// shards' keys in place and committed on their first key's shard
	// without two-phase commit, after every foreign read was re-checked
	// (TID unchanged, unlocked, unfenced, not split). It is counted in
	// neither SingleShard nor CrossShard.
	CrossShardReadOnly uint64
	// CrossShardRetries is 2PC rounds re-run because prepare found a
	// gathered read stale.
	CrossShardRetries uint64
	// CrossShardAborts is cross-shard transactions that ended with the
	// body's own error.
	CrossShardAborts uint64
	// CrossShardApplyLost is per-shard commit applications that failed
	// after prepare validated. Commit fences make this unreachable by
	// construction; it remains as an invariant counter — non-zero means
	// the fence protocol was violated (see internal/router).
	CrossShardApplyLost uint64
	// FencedKeys is per-key commit-fence installations: each cross-shard
	// commit round fences every key it touches for the prepare→apply
	// window, making the commit atomic against single-shard traffic.
	FencedKeys uint64
}

// ClusterStats is a point-in-time summary of cluster activity.
type ClusterStats struct {
	// Shards holds each shard database's Stats, indexed by shard ID.
	Shards []Stats
	// Router counts how transactions were routed.
	Router RouterStats
}

// ClusterOptions configures OpenCluster.
type ClusterOptions struct {
	// Shards is the number of shard databases. 0 means 1 (a cluster of
	// one routes everything to its only shard). The maximum is 256 —
	// every shard needs at least one worker ID from the cluster's
	// shared 8-bit TID namespace.
	Shards int
	// Partitioner maps keys to shards; nil means HashPartitioner.
	Partitioner Partitioner
	// DB configures each shard database. DB.Workers is the PER-SHARD
	// worker count (0 means 4): the cluster runs Shards×Workers workers
	// in total, capped at 256 cluster-wide (each shard's TIDs embed
	// worker IDs from a disjoint slice of one 8-bit namespace; see
	// internal/core). When the total would exceed the cap, the
	// per-shard count is reduced. DB.RedoLog, when set, must be a
	// per-shard template containing a %d verb ("data/shard-%d"): each
	// shard logs and checkpoints into its own directory.
	DB Options
}

// resolve validates the cluster options and returns the effective shard
// count and per-shard Options (worker count resolved, RedoLog still a
// template).
func (o ClusterOptions) resolve() (int, Options, error) {
	shards := o.Shards
	if shards == 0 {
		shards = 1
	}
	var errs []error
	if shards < 0 {
		errs = append(errs, fmt.Errorf("doppel: negative Shards (%d)", o.Shards))
	}
	if shards > core.MaxWorkers {
		errs = append(errs, fmt.Errorf("doppel: Shards (%d) exceeds the %d-worker TID namespace", o.Shards, core.MaxWorkers))
	}
	if o.DB.RedoLog != "" && strings.Count(o.DB.RedoLog, "%d") != 1 {
		errs = append(errs, fmt.Errorf("doppel: cluster RedoLog %q must be a per-shard template containing %%d exactly once", o.DB.RedoLog))
	}
	if err := o.DB.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return 0, Options{}, err
	}
	db := o.DB
	if db.Workers <= 0 {
		db.Workers = 4
	}
	if db.Workers*shards > core.MaxWorkers {
		db.Workers = core.MaxWorkers / shards
		if db.Workers < 1 {
			db.Workers = 1
		}
	}
	return shards, db, nil
}

// Cluster partitions the keyspace across independent shard databases,
// each a full DB with its own worker pool, phase coordinator and
// (optionally) durability directory. Transactions whose keys live on
// one shard — the common case — run on that shard's embedded fast path
// with no cross-shard coordination; transactions that span shards run
// under a minimal two-phase commit (see internal/router for the
// protocol and its isolation caveats). All methods are safe for
// concurrent use.
type Cluster struct {
	dbs    []*DB
	router *router.Router
	stats  *metrics.RouterStats
}

// OpenCluster creates the shard databases and the router over them. On
// any shard failing to open, already-opened shards are closed and the
// error returned.
func OpenCluster(opts ClusterOptions) (*Cluster, error) {
	return buildCluster(opts, func(o Options, shard int) (*DB, error) {
		if o.RedoLog != "" {
			o.RedoLog = fmt.Sprintf(o.RedoLog, shard)
		}
		return OpenErr(o)
	})
}

// RecoverCluster rebuilds a cluster from the per-shard durability
// directories named by the template dir (which must contain a %d verb,
// as OpenCluster's RedoLog does): shard i recovers from
// fmt.Sprintf(dir, i), exactly as Recover rebuilds a single DB. The
// cluster geometry must match the one that wrote the directories — the
// same shard count and an equivalent Partitioner — or keys recover into
// shards that no longer own them. Unless opts.DB.RedoLog names a
// different template, logging resumes into the recovered directories.
func RecoverCluster(dir string, opts ClusterOptions) (*Cluster, error) {
	if strings.Count(dir, "%d") != 1 {
		return nil, fmt.Errorf("doppel: RecoverCluster dir %q must be a per-shard template containing %%d exactly once", dir)
	}
	if opts.DB.RedoLog == "" {
		opts.DB.RedoLog = dir
	}
	return buildCluster(opts, func(o Options, shard int) (*DB, error) {
		o.RedoLog = fmt.Sprintf(o.RedoLog, shard)
		return Recover(fmt.Sprintf(dir, shard), o)
	})
}

func buildCluster(opts ClusterOptions, open func(Options, int) (*DB, error)) (*Cluster, error) {
	shards, dbOpts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	dbs := make([]*DB, shards)
	for i := range dbs {
		o := dbOpts
		o.workerIDBase = i * dbOpts.Workers
		db, err := open(o, i)
		if err != nil {
			for _, prev := range dbs[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("doppel: shard %d: %w", i, err)
		}
		dbs[i] = db
	}
	backends := make([]router.Shard, shards)
	for i, db := range dbs {
		backends[i] = shardBackend{db}
	}
	stats := &metrics.RouterStats{}
	return &Cluster{
		dbs:    dbs,
		router: router.New(backends, opts.Partitioner, stats),
		stats:  stats,
	}, nil
}

// shardBackend adapts a shard *DB to the router.Shard surface: the
// Exec methods pass through, and the record-level accessors the
// cross-shard prepare needs (the store for fence install and validation
// snapshots, the split-phase check) reach into the shard's engine. The
// wrapper keeps those accessors off DB's public API.
type shardBackend struct {
	db *DB
}

func (b shardBackend) ExecContext(ctx context.Context, fn TxFunc) error {
	return b.db.ExecContext(ctx, fn)
}

func (b shardBackend) ExecAsync(fn TxFunc, done func(error)) {
	b.db.ExecAsync(fn, done)
}

func (b shardBackend) Store() *store.Store { return b.db.eng.Store() }

func (b shardBackend) SplitActive(key string) bool { return b.db.eng.SplitActive(key) }

func (b shardBackend) WakeAll() { b.db.eng.WakeAll() }

// Exec runs fn as a transaction over the cluster's whole keyspace and
// returns once it has committed; semantics match DB.Exec, plus routing.
// Exec is exactly ExecContext(context.Background(), fn).
func (c *Cluster) Exec(fn TxFunc) error {
	return c.router.ExecContext(context.Background(), fn)
}

// ExecContext is Exec with cancellation, with DB.ExecContext's
// contract: cancellation is honored while the transaction waits in a
// shard's queue and between cross-shard retry rounds; once an execution
// attempt has begun it runs to completion.
func (c *Cluster) ExecContext(ctx context.Context, fn TxFunc) error {
	return c.router.ExecContext(ctx, fn)
}

// ExecAsync submits fn and returns without waiting; done is called
// exactly once with the outcome, with DB.ExecAsync's constraints. A
// transaction that proves cross-shard completes on a background
// goroutine rather than a shard worker.
func (c *Cluster) ExecAsync(fn TxFunc, done func(error)) {
	c.router.ExecAsync(fn, done)
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.dbs) }

// ShardOf returns the shard that owns key.
func (c *Cluster) ShardOf(key string) int { return c.router.ShardOf(key) }

// DB returns shard i's database, for stats, tests and benchmarks.
// Executing transactions directly on it bypasses the router: safe for
// keys the shard owns, corrupting for keys it does not.
func (c *Cluster) DB(i int) *DB { return c.dbs[i] }

// SplitHint labels key as split data for op on the shard that owns it;
// see DB.SplitHint.
func (c *Cluster) SplitHint(key string, op OpKind) {
	c.dbs[c.router.ShardOf(key)].SplitHint(key, op)
}

// ClearSplitHint removes a manual label.
func (c *Cluster) ClearSplitHint(key string) {
	c.dbs[c.router.ShardOf(key)].ClearSplitHint(key)
}

// Stats returns per-shard statistics plus the router's counters.
func (c *Cluster) Stats() ClusterStats {
	s := ClusterStats{Shards: make([]Stats, len(c.dbs))}
	for i, db := range c.dbs {
		s.Shards[i] = db.Stats()
	}
	snap := c.stats.Snapshot()
	s.Router = RouterStats{
		SingleShard:         snap.SingleShard,
		Reroutes:            snap.Reroutes,
		CrossShard:          snap.CrossShard,
		CrossShardReadOnly:  snap.CrossShardReadOnly,
		CrossShardRetries:   snap.CrossShardRetries,
		CrossShardAborts:    snap.CrossShardAborts,
		CrossShardApplyLost: snap.CrossShardApplyLost,
		FencedKeys:          snap.FencedKeys,
	}
	return s
}

// Checkpoint checkpoints every shard (each at its own quiesced phase
// boundary; the per-shard snapshots are not mutually consistent for
// in-flight cross-shard transactions). Requires a RedoLog template.
func (c *Cluster) Checkpoint() error {
	var errs []error
	for i, db := range c.dbs {
		if err := db.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close stops every shard. The cluster must not be used after Close;
// in-flight Execs drain first, as with DB.Close. A cross-shard commit
// that has prepared applies on every shard before any shard closes; one
// that has not gets ErrClosed.
func (c *Cluster) Close() {
	c.router.Close(ErrClosed, func() {
		for _, db := range c.dbs {
			db.Close()
		}
	})
}
