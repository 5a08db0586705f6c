// Package doppel is an in-memory transactional key/value database that
// uses phase reconciliation to execute contended commutative updates in
// parallel, reproducing "Phase Reconciliation for Contended In-Memory
// Transactions" (Narula, Cutler, Kohler, Morris — OSDI 2014).
//
// The database cycles through joined, split and reconciliation phases.
// Joined phases run every transaction under Silo-style OCC. When a
// record becomes contended under a commutative operation (Add, Max, Min,
// Mult, OPut, TopKInsert), Doppel marks it split: during split phases
// that operation updates per-core slices with no coordination, and short
// reconciliation phases merge the slices back. Transactions that touch
// split data any other way are transparently stashed and re-executed in
// the next joined phase; callers just observe a slower commit.
//
// # Quick start
//
//	db := doppel.Open(doppel.Options{})
//	defer db.Close()
//	err := db.Exec(func(tx doppel.Tx) error {
//		if err := tx.Add("page:42:likes", 1); err != nil {
//			return err
//		}
//		return tx.PutBytes("user:7:last", []byte("page:42"))
//	})
//
// Exec retries conflict aborts internally and returns after the
// transaction has committed (or failed with the body's own error).
package doppel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doppel/internal/checkpoint"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// Tx is the handle passed to transaction bodies: sixteen operations,
// each on one record, defined once over the executing engine's read and
// write. See engine.Tx for method semantics; the splittable operations
// (Add, Max, Min, Mult, OPut, TopKInsert) are the ones phase
// reconciliation can parallelize under contention.
type Tx = engine.Tx

// TxFunc is a transaction body. Bodies may be re-executed after
// conflicts or stashes and must therefore be pure functions of the
// database state they read.
type TxFunc = engine.TxFunc

// Order is the ordering component of OPut's ordered tuples.
type Order = store.Order

// TopKEntry is one member of a top-K set record.
type TopKEntry = store.TopKEntry

// Value is an immutable typed record value.
type Value = store.Value

// OpKind identifies an operation for SplitHint.
type OpKind = store.OpKind

// Splittable operation kinds for SplitHint.
const (
	OpAdd        = store.OpAdd
	OpMax        = store.OpMax
	OpMin        = store.OpMin
	OpMult       = store.OpMult
	OpOPut       = store.OpOPut
	OpTopKInsert = store.OpTopKInsert
)

// Stats is a point-in-time summary of database activity.
type Stats struct {
	Committed    uint64
	Aborted      uint64
	Stashed      uint64
	Retries      uint64
	Phase        string
	PhaseChanges uint64
	SplitKeys    []string
	// MergeFailures counts reconciliation merges that failed on a type
	// mismatch between a split record's global value and a per-core
	// slice; the affected slice writes were dropped and the record kept
	// its previous value and TID. Non-zero means the application mixed
	// incompatible operations on a split key.
	MergeFailures uint64
	// StashDropped counts held transactions a worker abandoned after its
	// replay cap: stashed ones, and ones parked after a conflict or a
	// commit fence, whose replays conflict-aborted over a million times
	// (a pathological livelock). Each such transaction never executed,
	// and its caller got an error; each worker also logs the first drop
	// it makes.
	StashDropped uint64
	// FenceAborts counts attempts that yielded to a cross-shard commit
	// fence: the transaction touched a key an in-flight cross-shard
	// commit had validated but not yet applied. The worker parks such a
	// transaction and retries it once the router releases the fence
	// (fences live for microseconds); the counter is only ever non-zero
	// for shards of a Cluster.
	FenceAborts uint64
	// RedoLogError is the redo logger's terminal failure ("" when
	// healthy or logging is disabled). Logging is asynchronous, so
	// transactions keep committing in memory after such a failure —
	// operators must watch this field to know durability has stopped.
	RedoLogError string
	// RedoSyncs counts the redo log's group-commit syncs: batches
	// written and fsynced, plus one per extra segment a MaxSegmentBytes
	// cut spreads a batch over. Asynchronous commits share one sync per
	// group-commit cadence (2 ms); a SyncCommit acknowledgement forces
	// one as soon as it waits. RedoSyncs/Committed is the fsync cost per
	// transaction.
	RedoSyncs uint64
	// ScrubPasses counts completed WAL scrub passes (background via
	// Options.ScrubEvery plus manual ScrubWAL calls); ScrubError is the
	// newest pass's damage report, "" while the log audits clean. A
	// non-empty value means a sealed segment recovery would need has
	// decayed on disk — act while the database is still healthy.
	ScrubPasses uint64
	ScrubError  string
}

// WALScrubStats summarizes one WAL scrub pass; see wal.ScrubDir.
type WALScrubStats = wal.ScrubStats

// CheckpointStats summarizes checkpoint activity; see checkpoint.Stats.
type CheckpointStats = checkpoint.Stats

// RecoveryStats reports what Recover read to rebuild the database. After
// a checkpoint, recovery is bounded: it loads the snapshot and replays
// only the segments written after it.
type RecoveryStats struct {
	SnapshotFile     string // snapshot loaded, "" when none existed
	SnapshotEntries  int    // records restored from the snapshot
	SnapshotSeq      uint64 // first segment sequence the snapshot does not cover
	SegmentsReplayed int    // live segments replayed after the snapshot
	RecordsReplayed  int    // redo records replayed from those segments
}

// DB is a Doppel database with its own worker goroutines. All methods
// are safe for concurrent use.
type DB struct {
	eng      *core.DB
	redo     *wal.Logger
	redoDir  string
	ckpt     *checkpoint.Checkpointer
	recovery RecoveryStats
	queues   []chan *request
	wg       sync.WaitGroup
	stopped  atomic.Bool
	next     atomic.Uint64
	sendMu   sync.RWMutex // read-held across each queue send; see enqueue

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
	scrubMu   sync.Mutex
	scrubs    uint64
	scrubErr  error
}

type request struct {
	fn     TxFunc
	submit int64
	done   chan error      // synchronous completion (ExecContext); made once per pooled request
	cb     func(error)     // asynchronous completion (ExecAsync); nil for ExecContext
	ctx    context.Context // nil means not cancellable (Exec, ExecAsync)
}

// requests pools the requests of ExecAsync and ExecContext alike; each
// keeps its 1-buffered done channel across uses. A request is recycled
// only once nothing else will touch it: an ExecAsync request at its
// completion, an ExecContext request once its caller has received the
// outcome (or it was never queued). An ExecContext caller that gives up
// on cancellation abandons its request while a worker may still hold
// it, and the GC takes it.
var requests = sync.Pool{New: func() any { return &request{done: make(chan error, 1)} }}

// recycle clears req, keeping its done channel, and pools it.
func (req *request) recycle() {
	*req = request{done: req.done}
	requests.Put(req)
}

// Complete implements core.Completion: it reports the request's outcome
// through whichever completion mechanism the submitter chose. It is the
// last use of req by the worker: an ExecAsync request goes back to the
// pool before its callback runs, and an ExecContext waiter may recycle
// its request as soon as it receives from done.
func (req *request) Complete(err error) {
	if cb := req.cb; cb != nil {
		req.recycle()
		cb(err)
		return
	}
	req.done <- err
}

// Open creates a database and starts its workers. It panics only on
// programmer error; an unopenable redo log is returned by OpenErr.
func Open(opts Options) *DB {
	db, err := OpenErr(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// OpenErr is Open with an error return (needed only when Options.RedoLog
// is set). It refuses a durability directory that already holds logged
// state — appending a fresh database's records behind an old
// generation's would make the new writes unrecoverable; use Recover for
// existing directories.
func OpenErr(opts Options) (*DB, error) {
	if opts.RedoLog != "" {
		has, err := wal.HasState(opts.RedoLog)
		if err != nil {
			return nil, err
		}
		if has {
			return nil, fmt.Errorf("%w: %s", ErrLogExists, opts.RedoLog)
		}
	}
	return openInto(opts, store.New())
}

// Recover rebuilds a database from the durability directory at dir:
// it loads the manifest's snapshot (if any), replays only the segments
// the snapshot does not cover, and starts the database. Loading runs at
// GOMAXPROCS: snapshot entries decode on that many goroutines sharded by
// key while the segments replay concurrently with the snapshot load and
// with each other — safe because every install applies only when it
// advances the key's TID, so the merge is order-independent. Unless
// opts.RedoLog names a different directory, logging resumes into dir by
// appending fresh records to the existing log — recovering and crashing
// again never loses recovered state. RecoveryStats reports how bounded
// the replay was.
func Recover(dir string, opts Options) (*DB, error) {
	st, res, err := checkpoint.LoadStore(dir)
	if err != nil {
		return nil, err
	}
	if opts.RedoLog == "" {
		opts.RedoLog = dir
	}
	db, err := openInto(opts, st)
	if err != nil {
		return nil, err
	}
	db.recovery = RecoveryStats{
		SnapshotFile:     res.Manifest.Snapshot,
		SnapshotEntries:  res.SnapshotEntries,
		SnapshotSeq:      res.Manifest.SnapshotSeq,
		SegmentsReplayed: len(res.Segments),
		RecordsReplayed:  res.Records,
	}
	return db, nil
}

func openInto(opts Options, st *store.Store) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts, cfg := opts.resolve()
	workers := opts.Workers
	var redo *wal.Logger
	if opts.RedoLog != "" {
		var err error
		redo, err = wal.OpenOptions(opts.RedoLog, wal.Options{MaxSegmentBytes: opts.MaxSegmentBytes})
		if err != nil {
			return nil, err
		}
		cfg.Redo = redo
	}
	db := &DB{
		eng:    core.Open(st, cfg),
		redo:   redo,
		queues: make([]chan *request, workers),
	}
	if redo != nil {
		db.redoDir = opts.RedoLog
		db.ckpt = checkpoint.New(db.eng, redo, checkpoint.Options{Every: opts.CheckpointEvery})
		if opts.ScrubEvery > 0 {
			db.scrubStop = make(chan struct{})
			db.scrubWG.Add(1)
			go db.scrubLoop(opts.ScrubEvery)
		}
	}
	for w := 0; w < workers; w++ {
		db.queues[w] = make(chan *request, 128)
		db.wg.Add(1)
		go db.worker(w)
	}
	return db, nil
}

// worker drives one engine worker. It blocks on exactly two events: a
// request arriving in its queue, and a token in the engine's wake
// channel for it (core.DB.Wake). The engine leaves one after every
// phase-transition publish and completion, and after a commit releases
// locks a parked request waits for; the cluster router leaves one after
// releasing commit fences. A wake makes the worker Poll, which
// acknowledges a transition, reconciles its slices, replays its stash
// and retries its parked requests. No timer drives it. Requests the engine holds
// (stashed, parked, awaiting durability) are completed by the engine;
// the worker goes straight back to its queue.
func (db *DB) worker(w int) {
	defer db.wg.Done()
	wake := db.eng.Wake(w)
	q := db.queues[w]
	for {
		select {
		case req, ok := <-q:
			if !ok {
				// Close stopped phase publication before closing the
				// queues: acknowledge a transition in flight so no other
				// worker waits on this one, and leave what this worker
				// holds to core.DB.Close.
				db.eng.Poll(w)
				return
			}
			db.run(w, req)
		case <-wake:
			db.eng.Poll(w)
		}
	}
}

// run submits req to the engine until the engine owns it, retrying a
// Paused attempt after the worker's next wake (the last acknowledger of
// the transition leaves it).
func (db *DB) run(w int, req *request) {
	// A request cancelled while it waited in the queue never executes
	// (the ExecContext contract); the caller has already returned, so
	// the completion send lands in the buffered done channel unread.
	if req.ctx != nil {
		select {
		case <-req.ctx.Done():
			req.Complete(req.ctx.Err())
			return
		default:
		}
	}
	for !db.eng.Run(w, req.fn, req.submit, req) {
		// The wake may be meant for Poll's other work too (a parked
		// request), so Poll before running again.
		<-db.eng.Wake(w)
		db.eng.Poll(w)
	}
}

// Exec runs fn as a serializable transaction and returns once it has
// finished: committed (acknowledged from memory unless
// Options.SyncCommit), or failed with fn's own error. A transaction
// stashed in a split phase returns after its replay in the next joined
// phase, with the replay's outcome. Conflicts are retried internally.
// Exec is exactly ExecContext(context.Background(), fn).
func (db *DB) Exec(fn TxFunc) error {
	return db.ExecContext(context.Background(), fn)
}

// ExecContext is Exec with cancellation: if ctx is cancelled while the
// request is still waiting in the worker queue — either the queue is
// full or the worker has not reached it yet — the transaction does not
// execute and ctx's error is returned. Cancellation is checked up to
// the moment a worker starts the first execution attempt; once
// execution has begun the transaction runs to completion (a commit
// cannot be un-happened), and a cancellation that fires during it makes
// ExecContext return ctx's error even though the transaction may still
// commit. Use Exec when that ambiguity is unacceptable.
//
// Like ExecAsync it allocates nothing of its own in steady state: the
// request and its done channel come from a pool, and the request goes
// back once the outcome has been received. A request whose caller
// returned on cancellation may still be held by a worker, so it is
// left to the GC instead.
//
//doppel:hotpath
func (db *DB) ExecContext(ctx context.Context, fn TxFunc) error {
	req := requests.Get().(*request)
	req.fn, req.submit = fn, engine.Now()
	if ctx.Done() != nil {
		req.ctx = ctx
	}
	if err := db.enqueue(req); err != nil {
		req.recycle()
		return err
	}
	if req.ctx == nil {
		err := <-req.done
		req.recycle()
		return err
	}
	select {
	case err := <-req.done:
		req.recycle()
		return err
	case <-ctx.Done():
		// The worker still owns the request; its completion send lands in
		// the buffered done channel and is dropped with the request.
		return ctx.Err()
	}
}

// ExecAsync submits fn like Exec but returns without waiting: done is
// called exactly once with the transaction's outcome, usually from the
// worker goroutine that completed it, and from Close's goroutine for a
// transaction that Close completes. done must be quick and must not
// submit further transactions synchronously, or it stalls that worker.
// This is the batching path the network server uses to keep every
// worker busy without one blocked goroutine per in-flight request; it
// allocates nothing of its own in steady state.
//
//doppel:hotpath
func (db *DB) ExecAsync(fn TxFunc, done func(error)) {
	req := requests.Get().(*request)
	req.fn, req.submit, req.cb = fn, engine.Now(), done
	if err := db.enqueue(req); err != nil {
		req.Complete(err)
	}
}

// enqueue hands req to the next worker's queue, or reports ErrClosed
// once Close has begun; a cancellable request gives up with ctx's error
// while the queue is full. The read lock is held across the send so
// that Close cannot close the queue under it. The send blocks only
// while the queue is full, and the workers that drain it never take
// the lock.
func (db *DB) enqueue(req *request) error {
	if !db.sendMu.TryRLock() {
		return ErrClosed
	}
	defer db.sendMu.RUnlock()
	q := db.queues[int(db.next.Add(1))%len(db.queues)]
	if req.ctx == nil {
		// Not cancellable: a plain send keeps the hot path free of
		// selectgo.
		q <- req
		return nil
	}
	select {
	case q <- req:
		return nil
	case <-req.ctx.Done():
		return req.ctx.Err()
	}
}

// Checkpoint forces a checkpoint now: a consistent snapshot is written
// at a quiesced phase boundary, the WAL rotates, and segments the
// snapshot covers are garbage-collected. It returns once the checkpoint
// is durable. Requires Options.RedoLog.
func (db *DB) Checkpoint() error {
	if db.ckpt == nil {
		return fmt.Errorf("Checkpoint: %w", ErrRequiresRedoLog)
	}
	if db.stopped.Load() {
		return ErrClosed
	}
	return db.ckpt.Checkpoint()
}

// ScrubWAL audits the redo log's sealed segments now: every live sealed
// segment is re-decoded end to end and cross-checked against the
// manifest's sealed metadata — the same validation recovery performs,
// run on demand while the database is healthy. A non-nil error is the
// joined damage report; the pass also feeds Stats.ScrubPasses and
// Stats.ScrubError. Scrubbing only reads and runs concurrently with
// traffic and checkpoints (a segment GC'd mid-pass counts as skipped).
// Requires Options.RedoLog.
func (db *DB) ScrubWAL() (WALScrubStats, error) {
	if db.redo == nil {
		return WALScrubStats{}, fmt.Errorf("ScrubWAL: %w", ErrRequiresRedoLog)
	}
	stats, err := wal.ScrubDir(db.redoDir)
	db.scrubMu.Lock()
	db.scrubs++
	db.scrubErr = err
	db.scrubMu.Unlock()
	return stats, err
}

// scrubLoop runs background scrub passes every interval until Close.
func (db *DB) scrubLoop(every time.Duration) {
	defer db.scrubWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-db.scrubStop:
			return
		case <-t.C:
			_, _ = db.ScrubWAL()
		}
	}
}

// CheckpointStats returns checkpoint activity counters (zero when no
// redo log is configured).
func (db *DB) CheckpointStats() CheckpointStats {
	if db.ckpt == nil {
		return CheckpointStats{}
	}
	return db.ckpt.Stats()
}

// LastRecovery reports what Recover loaded to build this database; it is
// zero for databases not created by Recover.
func (db *DB) LastRecovery() RecoveryStats { return db.recovery }

// WALErr returns the redo logger's terminal failure, or nil while the
// logger is healthy or logging is disabled. Logging is asynchronous, so
// without Options.WALFailStop transactions keep committing in memory
// after such a failure — operators must watch this (or
// Stats.RedoLogError) to know durability has stopped.
func (db *DB) WALErr() error {
	if db.redo == nil {
		return nil
	}
	return db.redo.Err()
}

// DurableLSN returns the redo log's durability watermark: every record
// whose LSN is at or below it has been written and fsynced. Zero when
// logging is disabled. Compared against a Replica's AppliedLSN it is
// the replication lag in records.
func (db *DB) DurableLSN() uint64 {
	if db.redo == nil {
		return 0
	}
	return db.redo.Durable()
}

// LogPosition returns the redo log's durable byte position — the
// replication offset a follower must reach to have applied every
// acknowledged commit. Zero when logging is disabled. After Close the
// final flush has run, so the value is the log's true end.
func (db *DB) LogPosition() LogPosition {
	if db.redo == nil {
		return LogPosition{}
	}
	return db.redo.DurablePosition()
}

// SplitHint manually labels key as split data for op (§5.5 of the
// paper). The classifier handles hot keys automatically; hints are for
// workloads whose contention the application can predict.
func (db *DB) SplitHint(key string, op OpKind) { db.eng.SplitHint(key, op) }

// ClearSplitHint removes a manual label.
func (db *DB) ClearSplitHint(key string) { db.eng.ClearSplitHint(key) }

// Stats returns aggregate statistics.
func (db *DB) Stats() Stats {
	agg := metrics.NewTxnStats()
	for w := 0; w < db.eng.Workers(); w++ {
		agg.Merge(db.eng.WorkerStats(w))
	}
	s := Stats{
		Committed:     agg.Committed.Load(),
		Aborted:       agg.Aborted.Load(),
		Stashed:       agg.Stashed.Load(),
		Retries:       agg.Retries.Load(),
		MergeFailures: agg.MergeFailures.Load(),
		StashDropped:  agg.StashDropped.Load(),
		FenceAborts:   agg.FenceAborts.Load(),
		Phase:         db.eng.Phase().String(),
		PhaseChanges:  db.eng.PhaseChanges(),
		SplitKeys:     db.eng.SplitKeys(),
	}
	if db.redo != nil {
		if err := db.redo.Err(); err != nil {
			s.RedoLogError = err.Error()
		}
		s.RedoSyncs = db.redo.Syncs()
		db.scrubMu.Lock()
		s.ScrubPasses = db.scrubs
		if db.scrubErr != nil {
			s.ScrubError = db.scrubErr.Error()
		}
		db.scrubMu.Unlock()
	}
	return s
}

// Close stops the workers, reconciles outstanding per-core slices and
// completes every request the workers still hold: stashed and parked
// transactions are replayed (a fence-parked one waits for its fence's
// release), and their callbacks may run on Close's goroutine.
// Submissions that race Close get ErrClosed. The database must not be
// used after Close.
func (db *DB) Close() {
	if db.stopped.Swap(true) {
		return
	}
	if db.scrubStop != nil {
		close(db.scrubStop)
		db.scrubWG.Wait()
	}
	// Stop the checkpointer while the workers are still being driven: an
	// in-flight checkpoint barrier needs polling workers to complete.
	if db.ckpt != nil {
		db.ckpt.Close()
	}
	// No transition may start once a worker has stopped: it could never
	// complete, and workers paused on it would never stop.
	db.eng.StopPhases()
	db.sendMu.Lock()
	for _, q := range db.queues {
		close(q)
	}
	db.wg.Wait()
	db.eng.Close()
	if db.redo != nil {
		_ = db.redo.Close()
	}
}

// Internal returns the underlying engine for benchmarks and tests that
// need direct worker control.
func (db *DB) Internal() *core.DB { return db.eng }
