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
// adds no allocation. The cross-shard path below adds none either (see
// Pooled frames).
//
// The router runs bodies on three engine.Ops of its own, each a Read
// and a Write under the sixteen operations engine.Tx defines once:
// probeTx records the first key and fails every operation; checkTx
// passes home-shard operations to the shard's own Ops, serves foreign
// reads in place and vetoes everything else; gatherTx is the
// cross-shard gather below.
//
// A read of a foreign key stays in place as long as the attempt has
// written nothing: the router reads the owning shard's record directly
// (store.Record.ReadConsistent, creating the record if absent so a
// missing key still has a TID), requires it unfenced and not split data
// (Shard.SplitActive), and keeps (record, TID) in the pooled frame. The
// attempt then commits on its home shard as a read-only transaction,
// and the router re-checks every foreign read: fence clear, key not
// split, record unlocked, TID unchanged. If all hold, the transaction
// is done with no shard transaction on the other shards
// (RouterStats.CrossShardReadOnly); if any fails, it re-executes on the
// cross-shard path (a Reroute).
//
// Everything else escalates: a foreign write, a write after a foreign
// read, a foreign read after a write, and a foreign read that meets a
// lock held past the read spin bound, a fence or split data. The
// attempt aborts before any effect and re-executes on the cross-shard
// path.
//
// # The cross-shard protocol
//
// A cross-shard transaction runs in three stages:
//
//  1. Gather: the body re-executes against gatherTx, which dispatches
//     each read to the owning shard (one single-key, read-only shard
//     transaction per distinct key, with read-your-writes overlay) and
//     buffers each write as a store.Op, tagged with its owning shard.
//     Splittable updates also read their target and type-check the op
//     against it (store.Check, which builds no value), so type errors
//     surface before anything commits, mirroring the embedded
//     joined-phase path.
//  2. Prepare: the touched shards' commit locks are taken in ascending
//     shard-ID order — deterministic ordering, so concurrent
//     cross-shard transactions cannot deadlock — then every touched
//     record is fenced (store.Record.Fence, a per-key intent token) and
//     every gathered read is revalidated against the record's current
//     value, read under the record's commit lock. A stale value, a
//     foreign fence, or a key in an active split phase vetoes: fences
//     and locks release, nothing applied, and gather runs again at
//     once. No timer paces the retry: gather's shard reads wait on the
//     shard's own events, parking on a fence until its release wake
//     and stashing on split data until the joined phase. A split key
//     the body only wrote blindly (Put) gets one such read first.
//  3. Commit: one shard transaction per shard with writes revalidates
//     that shard's gathered reads AND replays its buffered ops through
//     the shard's Ops.Write, kinds intact, so the shard stamps the core
//     IDs of ordered puts and top-K inserts itself — per shard,
//     validate+write is a single atomic OCC commit. The
//     transaction declares the fence token it owns (engine.FenceTx) so
//     it passes its own fences. When every apply lands, fences release,
//     then the commit locks.
//
// # Pooled frames
//
// Each routed transaction runs on a pooled routedCall, and each
// cross-shard one on a pooled crossCall. A crossCall owns the gather
// transaction with its read and write sets, read index and grouping
// scratch; the gather-read body; one apply body and one completion per
// shard; and the commit fan-out's WaitGroup and first error. The bodies
// and completions are bound once, when the frame is built, and the
// sets are cleared and reused. The gather reads go through the shard's
// ExecContext, which draws its request and done channel from a pool
// too, and an ExecAsync transaction that reroutes starts its goroutine
// through a func bound on its crossCall. In steady state a transaction
// therefore allocates only what its body creates, such as the values
// it writes.
//
// A frame goes back to its pool only once no shard can still run its
// bodies. apply waits for every shard's completion, but a caller whose
// context ends stops waiting on a shard that may still hold its
// request: a routedCall or crossCall whose transaction ended on a
// context error is abandoned to the GC, never pooled, and so is the
// shard request.
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
//   - A read-only transaction with in-place foreign reads is
//     serializable at its home commit's validation point V, the instant
//     between the end of its body and the home shard's read validation.
//     Its home reads hold at V by the shard's own OCC. Each foreign read
//     holds at V too: it was taken before V and re-checked after the
//     home commit, so after V, with the same TID; TIDs only grow, so the
//     record did not change in between, and a record locked by a
//     committer at V would show a new TID or a held lock at the
//     re-check. Every value the body saw is therefore the record's
//     value at V. That snapshot is consistent with every writer: a
//     single-shard commit installs its writes while holding all their
//     locks, and a cross-shard commit that is partly applied at V — some
//     shards applied, others not — keeps every fence it took up until
//     its last apply lands, so it is still fenced at the re-check (fence
//     clear fails) or has applied everywhere by then (the TID check
//     fails on any key it wrote after the read). Split data is the last
//     hole: during a split phase a record lags its per-core slices, so
//     the re-check also requires the key not split; a split phase that
//     ended before the re-check reconciled its slices under a new TID.
//     The fence and split checks run before the TID check, so an apply
//     or a reconciliation that finishes while they run still changes
//     the TID the last check reads.
//   - Unfenced keys pay nothing: the fence check is one atomic load per
//     record on paths that already load the record's TID word, and
//     single-shard transactions — and read-only ones whose foreign reads
//     validate — never take the router's commit locks.
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
//   - Close holds every shard's commit lock while the shards close,
//     so a prepared commit applies everywhere first, and a round that
//     takes the locks after Close fails before it fences anything.
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
