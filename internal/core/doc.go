// Package core implements Doppel, the phase reconciliation engine of
// the paper (§5): a serializable in-memory transaction system that
// cycles through joined, split and reconciliation phases. Joined phases
// run Silo-style OCC for all records; split phases route the selected
// commutative operation on contended records to per-core slices; short
// reconciliation phases merge the slices back into the global store.
// The classifier (classifier.go, §5.5) decides which records split.
//
// # The phase-transition protocol
//
// The engine is driven through the engine.Engine interface: worker w
// must be driven from a single goroutine that calls Attempt (or Run),
// and Poll whenever the worker's wake channel fires (or regularly), so
// the worker can participate in phase transitions. The
// coordinator goroutine only proposes transitions (publishing one
// in-flight *transition at a time); workers notice it between
// transactions, perform their pre-transition duty — reconciling their
// slices when leaving a split phase — and acknowledge. The last
// acknowledger installs the new phase and releases everyone (§5.4).
// Consequently every transaction executes entirely within one phase,
// and no commit is ever in flight while a transition completes.
//
// # Phase rules
//
// The coordinator proposes every phase change; DB.step holds the rules
// (§5.4):
//
//   - A joined phase lasts PhaseLength, or no longer than the last
//     split phase that absorbed slice writes. Then the classifier picks
//     the next split set; an empty one restarts the joined phase's
//     clock.
//   - A split phase ends StashBudget after its first stash, or
//     PhaseLength after it began if that is earlier: a stashed
//     transaction waits about one budget, not one phase. One that has
//     absorbed no slice write when a transaction stashes ends at once.
//     One that stashed nothing but keeps absorbing slice writes is
//     extended by PhaseLength, up to MaxSplitExtend times.
//
// The coordinator goroutine sleeps on stop, a one-slot kick channel and
// one reused timer armed for the next deadline; nothing polls. The
// first stash of a split phase moves the deadline up and kicks it, and
// completeTransition kicks it. Each deadline is also published in
// dueNs, and a worker that commits after it takes the step itself
// (DB.checkDue, under coordMu): while every processor runs a worker
// that never blocks, the runtime fires the timer only at the next
// preemption, which would stretch the stash budget by milliseconds.
//
// # The wake channel
//
// A driver does not have to poll on a timer to keep transitions moving.
// Each worker has a wake channel (DB.Wake) holding at most one token,
// and a token is left in it, with a non-blocking send, after every
// change of state a driver may be waiting for:
//
//   - beginTransition and RequestBarrier, after publishing a transition:
//     every worker must notice it and acknowledge;
//   - completeTransition, after installing the new phase and releasing
//     the transition: workers paused on it resume, and a worker entering
//     a joined phase replays its stash;
//   - WakeAll, which the cluster router calls after releasing a shard's
//     commit fences: requests parked on them can now run;
//   - a commit that released its locks, for each peer with a request
//     parked on a record it found locked (Worker.awaitUnlock), and a
//     conflict abort that found nothing locked, on the worker's own
//     channel: the parked request can run again.
//
// Every state change is followed by a send, so no wakeup is lost: a
// driver that checked the state and found nothing to do, then blocked
// on the channel, either finds the token of the change that happened
// since or receives it. One slot suffices because a token carries no
// data — it only says "look again" — and Poll re-reads all state,
// which covers every change made before it looked; a send that finds
// the slot full is covered by the token already there. A driver that
// blocks on the channel while waiting for one thing (a paused Run
// waiting for a transition to complete) must Poll after it too, since
// it may have consumed a token meant for the parked requests.
//
// # Held requests
//
// A request submitted with Run carries a Completion, and the worker
// completes it exactly once, with the request's real outcome. Three
// kinds are held past the Run call, all on the worker itself:
//
//   - stashed (the stash): the transaction touched split data in a
//     split phase. The worker replays it on entering the next joined
//     phase, and completes it as its replay commits or fails.
//   - parked: the transaction aborted on a conflict or on a cross-shard
//     commit fence. The worker retries it once per Poll, in whatever
//     phase is current; a retry in a split phase may stash it. After a
//     conflict the worker serves its queue until a peer's commit
//     releases its locks, or, if the record the conflict found is not
//     locked, until its own next wake: a retry that ran while the holder
//     kept its lock would only spin. A fence abort waits for the
//     router's wake: blocking on the fence could deadlock the shard,
//     since its releasing apply may be queued behind the request. A
//     stash replay that conflicts parks too, so a worker retries its
//     parked requests once more before it acknowledges a split phase,
//     while the peers that have acknowledged are paused: a stashed
//     transaction still commits joined (§5.4) unless it conflicts again.
//   - acknowledgements (Config.SyncCommit): a committed request is
//     completed after one wait on the redo log's watermark, and one
//     whose worker has slice writes still unlogged waits until the
//     worker has reconciled them at the next transition.
//
// Run never hands a conflict back; only a Paused request returns to its
// caller. A held request dropped after maxReplays conflict-aborted
// replays is completed with an error (Stats.StashDropped). Attempt is
// the same path with no completion: its stashed transactions replay
// with their outcome dropped, and an abort of the attempt itself
// returns to the caller.
//
// Closing needs no barrier across workers. The driver calls StopPhases
// first, so no transition is published after a worker stops; each
// worker then acknowledges any transition in flight (one Poll) and
// stops. Close (quiesce) acknowledges for them, reconciles to a joined
// phase, replays every stash, and retries parked requests, blocking on
// the worker's wake channel between rounds: a conflict on a record
// nobody holds leaves a token, and the router wakes every worker of the
// shard when it releases fences (and record locks it took). A completion may
// therefore run on Close's goroutine.
//
// # Barriers and durability
//
// RequestBarrier reuses this machinery to run a function at the
// quiesced boundary (all workers paused, slices reconciled, no commit
// in flight) — the point checkpoints cut at. The barrier body is O(1):
// it rotates the redo log and starts a copy-on-write capture; the
// store walk happens after workers resume. To keep captures exact,
// every value/TID install on the global store goes through
// store.SaveBeforeWrite while the record's commit lock is held (see
// Tx.commit and Worker.reconcile).
//
// # TID layout and invariant
//
// A commit TID is one 64-bit word:
//
//	bits 63..8   sequence number (strictly increasing per worker,
//	             bumped past every TID the transaction observed)
//	bits  7..0   worker ID
//
// (store.Record additionally shifts the whole TID left one bit to make
// room for its commit-lock bit; that is the record's concern, not this
// package's.) The 8-bit worker field is why Config.Workers is capped at
// MaxWorkers (256): a 257th worker would alias worker 0 and could mint
// a TID another worker already used, breaking the uniqueness that
// recovery's highest-TID-wins replay assumes. The worker field holds
// Config.WorkerIDBase + the local worker index: a sharded deployment
// assigns each shard instance a disjoint base so every shard shares one
// TID clock domain — the cap then applies to the cluster's total worker
// count, not each instance's.
//
// Commit TIDs are per-key monotone: genTID produces a TID above every
// TID the transaction observed, and reconciliation merges bump the
// record's TID the same way (a merge that fails — incompatible types —
// installs nothing and keeps the old TID, so readers are not
// invalidated for a write that never happened). Redo records are
// submitted to the logger while the commit lock is held, so the log's
// per-key order matches commit order — the property recovery's
// highest-TID-wins replay depends on.
//
// # Durability failure semantics
//
// Logging is asynchronous: commits acknowledge before their redo
// records are durable, unless Config.SyncCommit holds the
// acknowledgement (see Held requests). Workers encode each record into per-worker
// scratch buffers (no allocation in steady state) and the logger's
// LSN/watermark contract (wal.Logger.Durable) is how durability is
// observed after the fact. When the logger fails terminally it refuses
// all further records; with Config.WALFailStop the engine then also
// refuses to execute new transactions (fail-stop), otherwise commits
// continue in memory and the gap is visible only through the logger's
// Err.
package core
