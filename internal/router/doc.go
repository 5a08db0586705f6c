// Package router partitions a keyspace across N independent shard
// databases and routes transactions to them: whole to one shard when
// every key the transaction touches lives there (the overwhelmingly
// common case), or through a fenced two-phase commit when the
// transaction spans shards. doppel.Cluster is the public face; this
// package holds the mechanism.
//
// # Routing
//
// The router cannot know a transaction's keys without running its body,
// so it routes optimistically: a zero-shard-access probe run of the
// body captures the first operation's key (the first operation can
// never depend on an earlier read), the transaction is submitted to
// that key's shard, and every operation is checked against the shard's
// key range as it executes. A transaction that stays on its shard
// commits on the embedded fast path — the check is one hash compare per
// operation, and the routing state is pooled, so the steady-state path
// adds no allocation. A transaction that touches a foreign key aborts
// that attempt (before any effect) and re-executes on the cross-shard
// path.
//
// # The cross-shard protocol
//
// A cross-shard transaction runs in three stages:
//
//  1. Gather: the body re-executes against a routing transaction that
//     dispatches each read to the owning shard (one single-key,
//     read-only shard transaction per distinct key, with
//     read-your-writes overlay) and buffers each write, tagged with its
//     owning shard. Splittable updates also read their target so type
//     errors surface before anything commits, mirroring the embedded
//     joined-phase path.
//  2. Prepare: the touched shards' commit locks are taken in ascending
//     shard-ID order — deterministic ordering, so concurrent
//     cross-shard transactions cannot deadlock — then every touched
//     record is fenced (store.Record.Fence, a per-key intent token) and
//     every gathered read is revalidated against the record's current
//     value, read under the record's commit lock. A stale value, a
//     foreign fence, or a key in an active split phase vetoes: fences
//     and locks release, nothing applied, gather retries with jittered
//     backoff.
//  3. Commit: one shard transaction per shard with writes revalidates
//     that shard's gathered reads AND replays its buffered writes — per
//     shard, validate+write is a single atomic OCC commit. The
//     transaction declares the fence token it owns (engine.FenceTx) so
//     it passes its own fences. When every apply lands, fences release,
//     then the commit locks.
//
// # Commit fences
//
// The fence is what makes a cross-shard commit atomic against
// single-shard traffic that never touches the router. Every commit path
// in the shard engine checks the fence word: writers under the record's
// commit lock, validating readers in their read-validation loop, and
// execution-time reads as an early abort. A transaction that sees a
// foreign fence aborts with engine.AbortedFenced and retries once the
// fence releases (microseconds — but the retry must not block the
// shard's worker loop, because the releasing apply transaction may be
// queued behind it; doppel parks such requests off the queue). The
// router wakes each shard's workers (Shard.WakeAll) right after
// releasing that shard's fences, and the parked requests retry then.
//
// The record lock orders fence publication against in-flight
// committers: prepare reads its validation snapshot inside the lock
// after fencing, and a committer checks fences while holding the same
// lock — so either the committer finished first and prepare sees its
// installed value (stale, retry), or the fence is visible to the
// committer and it yields. Once a read validates with its fence up, the
// record cannot change until the fences release: every write path
// aborts on a foreign fence. That makes a commit-stage apply failure
// unreachable by construction — replay-op type compatibility was
// checked at gather against the very values prepare revalidated —
// demoting RouterStats.CrossShardApplyLost to an invariant counter that
// must read zero.
//
// # Invariants and caveats
//
//   - A transaction observes no effect of its own aborted attempts:
//     rerouting, stale prepares and user aborts all happen before any
//     shard transaction installs a write.
//   - Cross-shard transactions are serializable with respect to each
//     other (the per-shard commit locks order them) and atomic against
//     single-shard transactions (the fences order those): a
//     single-shard transaction serializes entirely before the
//     cross-shard commit's prepare or entirely after its last apply.
//   - Readers cannot observe a cross-shard commit's partial state: a
//     read-only transaction validates fences along with TIDs, so a
//     snapshot that validates was taken wholly before prepare (all
//     fences clear, no apply had run) or wholly after the last apply
//     (applies bump TIDs, so an in-between snapshot fails the TID
//     check).
//   - Unfenced keys pay nothing: the fence check is one atomic load per
//     record on paths that already load the record's TID word, and
//     single-shard transactions still never take the router's commit
//     locks.
//   - Split-phase interaction: prepare treats a key that is currently
//     split data as stale (its global record lags the per-core slices),
//     and a fenced key never enters a split set — reconciliation merges
//     slices without fence checks, so the two must not overlap. The
//     exclusion is enforced at publication time: prepare installs its
//     fences and only then reads phase+split set under the engine's
//     publication lock (SplitActive), while the phase-change publisher
//     re-filters the candidate set under that same lock, dropping any
//     key whose fence appeared after the classifier's advisory check.
//     The lock orders the two critical sections, so either the
//     publisher observes the fence (the key stays joined for this split
//     phase) or prepare observes the published set (and retries) —
//     the classifier-vs-prepare window this used to leave open is
//     closed. tools/analyze's lockorder pass keeps the ordering
//     deadlock-free statically, and TestFenceSplitRace stresses the
//     boundary with phase changes forced at millisecond cadence.
//   - RouterStats.CrossShardApplyLost must read zero. Non-zero means a
//     fenced record changed between prepare validation and apply — a
//     fence-protocol bug, not an expected workload outcome. The failing
//     shard's apply is rolled back by its own OCC (validate+write is
//     one transaction), but other shards' applies stand; the error is
//     returned to the caller.
//
// The remaining trade is the paper's: single-record operations — the
// overwhelming majority — keep a zero-overhead fast path, and only
// transactions that actually span shards (plus any single-shard
// transaction unlucky enough to collide with one mid-commit, counted in
// TxnStats.FenceAborts) pay for coordination.
package router
