package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Op is one redo operation: set key to value. Doppel's commutative
// operations reduce to value installs at commit time, so redo needs only
// the final value per record per transaction.
type Op struct {
	Key   string
	Value []byte
}

// Record is one transaction's redo log entry.
type Record struct {
	TID uint64
	Ops []Op
}

// segmentName returns the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%d.log", &seq); n != 1 || err != nil {
		return 0, false
	}
	return seq, true
}

// segFile is the subset of *os.File the logger writes through. Tests
// substitute a crash-injecting implementation.
type segFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openSegFunc opens (creating if needed, never truncating) a segment
// file for appending. Tests override it to inject write crashes.
type openSegFunc func(path string) (segFile, error)

func osOpenSeg(path string) (segFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// syncDir fsyncs a directory so a just-created file's directory entry is
// durable. Without it, records group-committed into a freshly rotated
// segment could be acknowledged and then lost with the whole file on
// power failure. Best effort: not every filesystem supports it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Options tunes a Logger.
type Options struct {
	// MaxSegmentBytes, when positive, caps a segment at this size —
	// independent of checkpoints, which also rotate the log. The
	// committer cuts a batch at the last record boundary that fits,
	// seals the segment and continues in the next one; a single record
	// larger than the budget gets a segment of its own. Small
	// segments bound how much any single file can hold and give parallel
	// recovery units of work; 0 disables size-based rotation (segments
	// then seal only at checkpoint rotations).
	MaxSegmentBytes int64
}

// groupCommitCadence is how long the committer lets a batch gather
// records when nothing needs it on disk yet: a pending batch is written
// and synced at once on demand (a WaitDurable caller, a Rotate, Close,
// or maxPendingBytes of backlog) and otherwise no sooner than this long
// after the previous sync. It bounds the asynchronous durability lag —
// a record nobody waits for reaches disk within the cadence plus two
// batch writes and fsyncs (the one in flight at its append, then its
// own) — and so also a follower's staleness.
const groupCommitCadence = 2 * time.Millisecond

// maxPendingBytes forces a sync once this much is buffered, bounding
// the batch buffers and the size of any single write.
const maxPendingBytes = 1 << 20

// cadenceOverride, when positive, replaces groupCommitCadence for
// loggers opened afterwards; see SetSyncCadenceForTesting.
var cadenceOverride atomic.Int64

// SetSyncCadenceForTesting makes loggers opened after the call pace
// undemanded syncs at d instead of the built-in cadence, and returns a
// function that restores the default. Tests set an hour to prove that
// waiters, Rotate and Close never wait for the cadence.
func SetSyncCadenceForTesting(d time.Duration) (restore func()) {
	cadenceOverride.Store(int64(d))
	return func() { cadenceOverride.Store(0) }
}

// Logger is an asynchronous group-commit redo logger over a segment
// directory. Appenders submit pre-encoded records and receive a log
// sequence number (LSN); a single committer goroutine writes and fsyncs
// everything that accumulated since its last write as one batch, then
// publishes the batch's highest LSN as the durability watermark
// (Durable) and wakes WaitDurable waiters with a single broadcast. The
// committer syncs on demand — a WaitDurable caller beyond the
// watermark, a Rotate, Close, or maxPendingBytes of backlog — and
// otherwise paces undemanded batches at one sync per cadence, so a
// stream of asynchronous commits shares one fsync per cadence instead
// of one per committer round trip.
type Logger struct {
	mu      sync.Mutex
	cond    *sync.Cond // wakes the committer
	durCond *sync.Cond // wakes WaitDurable waiters, once per synced batch
	buf     []byte     // encoded records awaiting the committer
	spare   []byte     // recycled batch buffer (double buffering)
	bufLSN  uint64     // LSN of the last record in buf
	bufMeta SegmentMeta
	lastLSN uint64 // last assigned LSN
	wantLSN uint64 // highest assigned LSN a WaitDurable caller has asked for
	// durPos is the durable byte position: everything before it has been
	// written and fsynced. It is the cross-process analogue of the
	// durable LSN watermark — LSNs are session-local counters, but a
	// Position names the same bytes to any reader of the directory, so a
	// follower's tail cursor can be compared against it directly.
	durPos   Position
	rot      *rotateReq
	closed   bool
	commDone bool  // the committer has exited; the watermark is final
	termErr  error // terminal failure: the logger can no longer write

	durable atomic.Uint64 // highest LSN known synced to disk
	failed  atomic.Bool   // mirrors termErr != nil; lock-free for hot-path checks
	syncs   atomic.Uint64 // group-commit writes synced to disk

	// cadence, lastSync and pace belong to the committer: the pacing
	// interval, when the previous batch reached disk, and the one timer
	// that wakes a pacing committer (created on first use, stopped
	// whenever no batch is pending).
	cadence  time.Duration
	lastSync time.Time
	pace     *time.Timer

	dir     string
	opts    Options
	openSeg openSegFunc
	lock    *os.File // exclusive directory lock (see lockDir)
	f       segFile
	seq     uint64 // sequence number of the open segment
	wg      sync.WaitGroup

	// man is the authoritative in-memory copy of the directory's
	// manifest; every durable manifest write goes through updateManifest
	// under manMu (the committer seals segments, the checkpointer
	// installs snapshots — they race).
	manMu sync.Mutex
	man   Manifest

	// curBytes and curMeta describe the open segment. They are written
	// at open (before the committer starts) and by the committer only.
	curBytes int64
	curMeta  SegmentMeta
}

type rotateReq struct {
	seq  uint64 // new segment's sequence number (filled by committer)
	err  error
	done chan struct{}
}

// Open opens (or creates) the log directory at dir and starts the group
// committer. Existing segments are preserved: the newest one is opened
// for appending after trimming any torn tail a crash may have left.
func Open(dir string) (*Logger, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with tuning options.
func OpenOptions(dir string, opts Options) (*Logger, error) {
	return openWith(dir, osOpenSeg, opts)
}

func openWith(dir string, openSeg openSegFunc, opts Options) (*Logger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Logger, error) {
		unlockDir(lock)
		return nil, err
	}
	// A corrupt manifest is refused here for the same reason recovery
	// refuses it: appending behind state we cannot interpret risks
	// making acknowledged commits unrecoverable.
	man, _, err := ReadManifest(dir)
	if err != nil {
		return fail(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return fail(err)
	}
	seq := uint64(1)
	var curBytes int64
	var curMeta SegmentMeta
	if n := len(segs); n > 0 {
		seq = segs[n-1].Seq
		// Trim a torn tail so that records appended after reopen follow
		// the last valid record (otherwise replay would stop at the torn
		// bytes and miss everything written after recovery), and rebuild
		// the open segment's size and TID-range metadata from the same
		// scan.
		curBytes, curMeta, err = trimAndScan(segs[n-1].Path, seq)
		if err != nil {
			return fail(err)
		}
	}
	curMeta.Seq = seq
	// A crash between sealing a segment and opening its successor leaves
	// the manifest recording the newest segment as sealed. We are about
	// to append to that segment, which would contradict its recorded
	// metadata (failing the next recovery's corruption check) and later
	// duplicate its manifest line when it seals again — so durably
	// retract the entry before any append.
	if man.SealedFor(seq) != nil {
		live := man.Sealed[:0]
		for _, s := range man.Sealed {
			if s.Seq != seq {
				live = append(live, s)
			}
		}
		man.Sealed = live
		if err := writeManifest(dir, man); err != nil {
			return fail(err)
		}
	}
	f, err := openSeg(filepath.Join(dir, segmentName(seq)))
	if err != nil {
		return fail(err)
	}
	syncDir(dir)
	l := &Logger{dir: dir, opts: opts, openSeg: openSeg, lock: lock, f: f, seq: seq,
		man: man, curBytes: curBytes, curMeta: curMeta,
		durPos:  Position{Seq: seq, Offset: curBytes},
		cadence: groupCommitCadence, lastSync: time.Now()}
	if d := cadenceOverride.Load(); d > 0 {
		l.cadence = time.Duration(d)
	}
	l.cond = sync.NewCond(&l.mu)
	l.durCond = sync.NewCond(&l.mu)
	l.wg.Add(1)
	go l.committer()
	return l, nil
}

// Dir returns the log directory.
func (l *Logger) Dir() string { return l.dir }

// SegmentSeq returns the sequence number of the segment currently being
// appended to.
func (l *Logger) SegmentSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Append submits one pre-encoded redo record (the output of
// AppendRecord or EncodeRecord) carrying transaction ID tid, and
// returns the record's log sequence number. The frame bytes are copied
// into the logger's batch buffer, so the caller may reuse its encode
// buffer immediately; in steady state Append allocates nothing and
// never blocks on I/O. Durability is observed separately: the record is
// durable once Durable() reaches the returned LSN, and WaitDurable
// blocks until it does (and makes the committer sync now rather than at
// its next cadence tick). An error return means the record was refused
// (the logger is closed or terminally failed) and no LSN was assigned.
func (l *Logger) Append(frame []byte, tid uint64) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		err := l.termErr
		l.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return 0, errors.New("wal: logger closed")
	}
	l.lastLSN++
	lsn := l.lastLSN
	l.buf = append(l.buf, frame...)
	l.bufLSN = lsn
	l.bufMeta.extendTID(tid)
	// Only the first record of a batch and a backlog past the byte cap
	// change what the committer is waiting for; a pacing committer
	// sleeps through the records in between.
	if n := len(l.buf); n == len(frame) || n >= maxPendingBytes {
		l.cond.Signal()
	}
	l.mu.Unlock()
	return lsn, nil
}

// Durable returns the durability watermark: every record whose LSN is
// at or below it has been written and fsynced. It is a single atomic
// load, advanced once per group-commit batch. With nobody waiting, it
// reaches an append's LSN within the group-commit cadence plus two
// batch writes and fsyncs.
func (l *Logger) Durable() uint64 { return l.durable.Load() }

// DurablePosition returns the durable byte position: every byte of the
// log before it has been written and fsynced, and every record whose
// durability was ever acknowledged lies entirely before it. Unlike the
// LSN watermark — a session-local counter that restarts with each Open
// — a Position names concrete bytes in the directory, so a replication
// follower tailing the segments can compare its own progress against
// it. After a clean Close the final flush has run, so the value is the
// log's true end.
func (l *Logger) DurablePosition() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durPos
}

// WaitDurable blocks until the record with log sequence number lsn is
// durable, i.e. its group commit has been written and fsynced. A
// blocked caller is demand: the committer syncs its batch at once
// instead of waiting out the cadence. A nil
// return is the durability acknowledgement: the record survives any
// subsequent crash and reopen. After a terminal logger failure,
// WaitDurable still returns nil for LSNs at or below the watermark
// (those batches reached disk before the failure) and the terminal
// error for everything later — records the dead logger will never
// write. Waiting on an LSN Append never assigned resolves once the
// logger closes or fails (a clean Close flushes every assigned LSN
// first, so only an unassigned one can see the closed error).
func (l *Logger) WaitDurable(lsn uint64) error {
	if l.durable.Load() >= lsn {
		return nil
	}
	l.mu.Lock()
	if want := min(lsn, l.lastLSN); want > l.wantLSN {
		l.wantLSN = want
		l.cond.Signal()
	}
	for l.durable.Load() < lsn && l.termErr == nil && !l.commDone {
		l.durCond.Wait()
	}
	err := l.termErr
	l.mu.Unlock()
	if l.durable.Load() >= lsn {
		return nil
	}
	if err == nil {
		err = errors.New("wal: logger closed before lsn became durable")
	}
	return err
}

// AppendSync encodes rec, appends it and waits for durability — the
// convenience path for callers outside the commit hot loop (tests,
// tools, compatibility). The hot path uses AppendRecord + Append with
// caller-owned buffers instead and observes durability through the
// watermark.
func (l *Logger) AppendSync(rec Record) error {
	lsn, err := l.Append(AppendRecord(nil, rec), rec.TID)
	if err != nil {
		return err
	}
	return l.WaitDurable(lsn)
}

// Rotate flushes everything appended so far to the current segment,
// seals it, and opens the next segment; it returns the new segment's
// sequence number. The caller must guarantee no Appends are in flight
// (the checkpoint barrier quiesces all workers before rotating):
// otherwise a record could land on the wrong side of the cut.
func (l *Logger) Rotate() (uint64, error) {
	req := &rotateReq{done: make(chan struct{})}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("wal: logger closed")
	}
	if l.rot != nil {
		l.mu.Unlock()
		return 0, errors.New("wal: rotation already in progress")
	}
	l.rot = req
	l.cond.Signal()
	l.mu.Unlock()
	<-req.done
	return req.seq, req.err
}

// committer drains batches and group-commits them; it also executes
// rotation requests after flushing the batch that preceded them. On
// exit — clean close or terminal failure — the watermark is final, so
// any remaining WaitDurable waiter is woken to observe its fate.
func (l *Logger) committer() {
	defer func() {
		if l.pace != nil {
			l.pace.Stop()
		}
		l.mu.Lock()
		l.commDone = true
		l.durCond.Broadcast()
		l.mu.Unlock()
		l.wg.Done()
	}()
	for {
		l.mu.Lock()
		for len(l.buf) == 0 && l.rot == nil && !l.closed {
			l.cond.Wait()
		}
		l.awaitDemand()
		// Swap the fill buffer for the recycled one so appenders keep
		// writing while this batch is on its way to disk; the pair is
		// reused forever, so the steady-state commit path allocates
		// nothing on either side.
		batch := l.buf
		batchLSN := l.bufLSN
		batchMeta := l.bufMeta
		l.buf = l.spare[:0]
		l.spare = nil
		l.bufMeta = SegmentMeta{}
		rot := l.rot
		l.rot = nil
		closed := l.closed
		f := l.f
		l.mu.Unlock()

		if len(batch) > 0 {
			err := l.writeBudgeted(f, batch, batchMeta)
			if err != nil {
				// A failed (possibly partial) batch write leaves junk at
				// the segment tail. Appending later batches after it
				// would strand them behind bytes replay cannot cross —
				// they would look durable but be unrecoverable, and the
				// next Open's torn-tail trim would even delete them. So
				// any write failure is terminal: fail fast and loudly.
				l.fail(err)
				if rot != nil {
					rot.err = err
					close(rot.done)
				}
				return
			}
			// Publish durability, recycle the batch buffer, and release
			// every waiter in the group with one broadcast. curBytes is
			// committer-owned, so reading it outside the lock is safe; the
			// durable position itself is published under mu alongside the
			// watermark broadcast.
			l.lastSync = time.Now()
			l.durable.Store(batchLSN)
			l.mu.Lock()
			l.spare = batch[:0]
			l.durPos = Position{Seq: l.seq, Offset: l.curBytes}
			l.durCond.Broadcast()
			l.mu.Unlock()
		}
		if rot != nil {
			l.doRotate(rot)
		} else if l.opts.MaxSegmentBytes > 0 && l.curBytes >= l.opts.MaxSegmentBytes && !closed {
			// Size-based rotation: the segment reached its byte budget, so
			// seal it now rather than when the next batch arrives.
			// writeBudgeted cut the batch at record boundaries, so the
			// segment ends on one.
			if _, err := l.advance(); err != nil {
				l.fail(err)
				return
			}
		}
		if closed {
			return
		}
	}
}

// awaitDemand holds a pending batch until something needs it on disk —
// a WaitDurable caller beyond the watermark, a queued Rotate, Close, or
// maxPendingBytes of backlog — or until the cadence has passed since
// the previous sync. The pace timer is armed only while it waits, and
// Reset reuses it, so pacing allocates nothing. It runs on the
// committer goroutine with mu held; cond.Wait releases mu, so appends
// keep landing in the batch meanwhile.
func (l *Logger) awaitDemand() {
	for l.rot == nil && !l.closed && l.wantLSN <= l.durable.Load() && len(l.buf) < maxPendingBytes {
		wait := l.cadence - time.Since(l.lastSync)
		if wait <= 0 {
			break
		}
		if l.pace == nil {
			l.pace = time.AfterFunc(wait, l.wakeCommitter)
		} else {
			l.pace.Reset(wait)
		}
		l.cond.Wait()
	}
	if l.pace != nil {
		l.pace.Stop()
	}
}

// wakeCommitter is the pace timer's callback. Taking mu orders it
// after the committer's cond.Wait, so the wakeup cannot be lost.
func (l *Logger) wakeCommitter() {
	l.mu.Lock()
	l.cond.Signal()
	l.mu.Unlock()
}

// fail marks the logger terminally broken: appends error out
// immediately, buffered records are discarded (their waiters observe
// the terminal error through WaitDurable — the watermark never reaches
// their LSNs), a Rotate that queued while the committer was mid-write
// is released with the error (its caller is a checkpoint barrier
// holding every worker — stranding it would deadlock the database), and
// Err() reports the cause so operators can see that durability has
// stopped.
func (l *Logger) fail(err error) {
	l.mu.Lock()
	l.closed = true
	if l.termErr == nil {
		l.termErr = err
	}
	l.failed.Store(true)
	l.buf = nil
	l.bufMeta = SegmentMeta{}
	rot := l.rot
	l.rot = nil
	l.durCond.Broadcast()
	l.mu.Unlock()
	if rot != nil {
		rot.err = err
		close(rot.done)
	}
	_ = l.f.Close()
}

// doRotate seals the current segment and opens the next one on behalf
// of an explicit Rotate call. Every failure is terminal: a segment that
// cannot be synced or sealed cannot be trusted to hold further
// acknowledged records.
func (l *Logger) doRotate(rot *rotateReq) {
	seq, err := l.advance()
	if err != nil {
		l.fail(err)
		rot.err = err
		close(rot.done)
		return
	}
	rot.seq = seq
	close(rot.done)
}

// advance seals the current segment — sync, close, publish its
// metadata in the manifest — and opens the next one, returning the new
// sequence number. It runs on the committer goroutine only. On error
// the caller must fail the logger: the old segment is closed and the
// log cannot accept further records.
func (l *Logger) advance() (uint64, error) {
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	// Publish the sealed segment's metadata before opening the next
	// segment. If we crash in between, the just-sealed segment is the
	// newest on disk and recovery treats it like any append target —
	// metadata is a cross-check, never a prerequisite. A manifest that
	// cannot be written is treated like any other write failure:
	// terminal, because it signals the directory is no longer reliably
	// writable.
	sealed := l.curMeta
	if err := l.updateManifest(func(m *Manifest) {
		m.Sealed = append(m.Sealed, sealed)
	}); err != nil {
		return 0, err
	}
	next := l.seq + 1
	f, err := l.openSeg(filepath.Join(l.dir, segmentName(next)))
	if err != nil {
		return 0, err
	}
	syncDir(l.dir)
	l.mu.Lock()
	l.f = f
	l.seq = next
	// The sealed segment's end and the successor's start name the same
	// log point; publishing the successor form keeps the durable
	// position aligned with where the next batch will land.
	l.durPos = Position{Seq: next}
	l.mu.Unlock()
	l.curBytes = 0
	l.curMeta = SegmentMeta{Seq: next}
	return next, nil
}

// maxSealedMeta bounds how many sealed-segment metadata lines the
// manifest keeps. Install prunes the list at every checkpoint, but a
// log running with size-based rotation and no checkpoints would
// otherwise grow the manifest (and the cost of rewriting it at every
// seal) without bound. The metadata is advisory — recovery simply has
// nothing to cross-check for segments whose entries were dropped — so
// capping it trades a little corruption-detection coverage on the
// oldest segments for bounded seal cost.
const maxSealedMeta = 512

// trimSealed drops the oldest entries beyond maxSealedMeta.
func trimSealed(s []SegmentMeta) []SegmentMeta {
	if len(s) > maxSealedMeta {
		return s[len(s)-maxSealedMeta:]
	}
	return s
}

// updateManifest applies mut to a copy of the in-memory manifest,
// writes the result durably, and only then adopts it. Both the
// committer (sealing segments) and the checkpointer (installing
// snapshots) mutate the manifest; manMu serializes them.
func (l *Logger) updateManifest(mut func(*Manifest)) error {
	l.manMu.Lock()
	defer l.manMu.Unlock()
	m := l.man
	m.Sealed = append([]SegmentMeta(nil), l.man.Sealed...)
	mut(&m)
	m.Sealed = trimSealed(m.Sealed)
	if err := writeManifest(l.dir, m); err != nil {
		return err
	}
	l.man = m
	return nil
}

// writeBudgeted appends one group-commit batch to the open segment
// (f) and syncs it. With MaxSegmentBytes set, the batch is cut at
// record boundaries so that no segment grows past the budget: the
// records that fit are written, the segment is sealed, and the rest
// continues into the next one. A single record larger than the budget
// gets a segment of its own. It runs on the committer goroutine only.
func (l *Logger) writeBudgeted(f segFile, batch []byte, meta SegmentMeta) error {
	budget := l.opts.MaxSegmentBytes
	cut := false
	for len(batch) > 0 {
		n, m := len(batch), meta
		if budget > 0 && (cut || l.curBytes+int64(n) > budget) {
			cut = true // from here on, each part's metadata is recounted
			n, m = fitRecords(batch, budget-l.curBytes, l.curBytes == 0)
		}
		if n > 0 {
			if err := writeBatch(f, batch[:n]); err != nil {
				return err
			}
			l.syncs.Add(1)
			l.curBytes += int64(n)
			l.curMeta.merge(m)
			batch = batch[n:]
		}
		if len(batch) > 0 {
			if _, err := l.advance(); err != nil {
				return err
			}
			f = l.f
		}
	}
	return nil
}

// fitRecords returns the length and metadata of the longest prefix of
// whole records in batch that fits in room bytes. When first is set
// the prefix holds at least one record, whatever its size. batch is
// committer input: every Append adds one AppendRecord frame (u32
// bodyLen, u32 crc, then the body, which opens with the u64 TID). A
// frame that overruns the batch cannot come from Append; it is taken
// whole as one record so the cut always makes progress.
func fitRecords(batch []byte, room int64, first bool) (int, SegmentMeta) {
	var meta SegmentMeta
	n := 0
	for n < len(batch) {
		size := len(batch) - n
		if size >= 16 {
			size = min(size, 8+int(binary.LittleEndian.Uint32(batch[n:])))
		}
		if int64(n+size) > room && !(first && n == 0) {
			break
		}
		var tid uint64
		if size >= 16 {
			tid = binary.LittleEndian.Uint64(batch[n+8:])
		}
		meta.extendTID(tid)
		n += size
	}
	return n, meta
}

// writeBatch pushes one group commit — already encoded, record-aligned
// bytes — to the segment and syncs it.
func writeBatch(f segFile, batch []byte) error {
	if _, err := f.Write(batch); err != nil {
		return err
	}
	return f.Sync()
}

// countingWriter counts bytes on their way to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteFileAtomic durably publishes dir/name: write to a temporary
// file, fsync it, rename into place, fsync the directory. Readers never
// observe a partial file. It returns the bytes written. Both the
// manifest and the checkpointer's snapshots publish through this one
// sequence so the crash-safety-critical dance exists exactly once.
func WriteFileAtomic(dir, name string, write func(io.Writer) error) (int64, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := write(cw); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return cw.n, nil
}

// Install atomically publishes snapshot (a file name inside the log
// directory) as covering every segment before seq, then deletes the
// segments and snapshots it has subsumed (pruning their metadata from
// the manifest). Call it only after the snapshot file itself is
// durable.
func (l *Logger) Install(snapshot string, seq uint64) error {
	err := l.updateManifest(func(m *Manifest) {
		m.Snapshot = snapshot
		m.SnapshotSeq = seq
		live := m.Sealed[:0]
		for _, s := range m.Sealed {
			if s.Seq >= seq {
				live = append(live, s)
			}
		}
		m.Sealed = live
	})
	if err != nil {
		return err
	}
	return gc(l.dir, snapshot, seq)
}

// gc removes segments older than keepSeq and snapshot files other than
// keepSnap, plus any leftover temporary files.
func gc(dir, keepSnap string, keepSeq uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, ent := range ents {
		name := ent.Name()
		remove := false
		if seq, ok := parseSegmentName(name); ok && seq < keepSeq {
			remove = true
		}
		if isSnapshotName(name) && name != keepSnap {
			remove = true
		}
		if filepath.Ext(name) == ".tmp" {
			remove = true
		}
		if remove {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// SnapshotFileName returns the snapshot file name for a checkpoint whose
// first uncovered segment is seq. It is defined here, next to the GC
// that recognizes snapshot files, so the format has a single source of
// truth.
func SnapshotFileName(seq uint64) string {
	return fmt.Sprintf("snapshot-%08d.db", seq)
}

// isSnapshotName reports whether name matches SnapshotFileName's format.
func isSnapshotName(name string) bool {
	var seq uint64
	n, err := fmt.Sscanf(name, "snapshot-%d.db", &seq)
	return n == 1 && err == nil
}

// Err returns the logger's terminal failure, if any. A non-nil result
// means appends can no longer reach disk — transactions still commit in
// memory (logging is asynchronous by design), so operators must watch
// this to know durability has stopped.
func (l *Logger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.termErr
}

// Syncs returns how many group-commit writes the logger has synced to
// disk: one per batch, plus one per extra segment a MaxSegmentBytes cut
// spreads a batch over.
func (l *Logger) Syncs() uint64 { return l.syncs.Load() }

// Failed reports whether the logger has failed terminally. It is a
// single atomic load, cheap enough for the engine to consult on every
// transaction (fail-stop mode); Err carries the cause.
func (l *Logger) Failed() bool { return l.failed.Load() }

// Close flushes outstanding records, closes the current segment and
// releases the directory lock. It is idempotent; after a terminal
// failure it only releases the lock (the committer already closed the
// segment).
func (l *Logger) Close() error {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.cond.Signal()
	lock := l.lock
	l.lock = nil
	l.mu.Unlock()
	l.wg.Wait()
	defer unlockDir(lock)
	if already {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// --- encoding ---

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the wire encoding of rec to buf and returns the
// extended slice:
//
//	u32 bodyLen | u32 crc(body) | body
//	body = u64 tid | u32 nops | nops × (u32 keyLen | key | u32 valLen | val)
//
// It encodes in place — the header is reserved up front and backfilled
// once the body's length and checksum are known — so a caller that
// reuses its buffer (buf[:0]) encodes without allocating. This is the
// commit hot path's encoder: workers build each redo record into a
// per-worker scratch buffer and hand the finished frame to Append.
//
//doppel:hotpath
func AppendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // bodyLen + crc, backfilled below
	buf = binary.LittleEndian.AppendUint64(buf, rec.TID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf
}

// EncodeRecord serializes rec exactly as the logger writes it. Exposed
// for tests and fuzzing (the canonical-prefix invariant: re-encoding
// replayed records must reproduce a byte prefix of the input).
func EncodeRecord(rec Record) []byte { return AppendRecord(nil, rec) }

// replayReader reads records from r, stopping cleanly at a torn or
// corrupt tail. It returns the decoded records, the byte offset of the
// end of the last valid record, and whether it stopped early (before a
// clean EOF) because of torn or corrupt data.
func replayReader(r io.Reader) (recs []Record, valid int64, torn bool, err error) {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return recs, valid, false, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				return recs, valid, true, nil // torn header
			}
			return recs, valid, false, err
		}
		bodyLen := binary.LittleEndian.Uint32(hdr[:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if bodyLen > 1<<30 {
			return recs, valid, true, nil // corrupt length: treat as torn tail
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return recs, valid, true, nil // torn body
		}
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return recs, valid, true, nil // corrupt body: stop at last good record
		}
		rec, err := decodeBody(body)
		if err != nil {
			return recs, valid, true, nil
		}
		recs = append(recs, rec)
		valid += int64(8 + len(body))
	}
}

// ReplayFile reads records from a single segment file in order, stopping
// cleanly at a torn or corrupt tail.
func ReplayFile(path string) ([]Record, error) {
	recs, _, err := ReplaySegment(path)
	return recs, err
}

// ReplaySegment reads records from a single segment file in order and
// additionally reports whether the file ended in a torn or corrupt
// tail. Parallel recovery uses the torn flag to enforce the rule that
// only the newest segment may be torn.
func ReplaySegment(path string) ([]Record, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	recs, _, torn, err := replayReader(f)
	return recs, torn, err
}

// trimAndScan truncates path to the end of its last valid record and
// returns the resulting byte size along with the TID-range metadata of
// the records it holds. The discarded bytes were never synced as part
// of a completed group commit acknowledgement, so no committed
// transaction is lost.
func trimAndScan(path string, seq uint64) (int64, SegmentMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, SegmentMeta{}, err
	}
	recs, valid, torn, err := replayReader(f)
	f.Close()
	if err != nil {
		return 0, SegmentMeta{}, err
	}
	meta := MetaFor(seq, recs)
	if torn {
		if err := os.Truncate(path, valid); err != nil {
			return 0, SegmentMeta{}, err
		}
	}
	return valid, meta, nil
}

// HasState reports whether dir holds durable state a fresh database
// must not append to: a manifest, or any non-empty segment. Opening
// such a directory with an empty store would mix a new low-TID
// generation behind the old high-TID records, and recovery's
// TID-monotonic filter would silently drop the new writes — callers
// must go through recovery instead.
func HasState(dir string) (bool, error) {
	_, ok, err := ReadManifest(dir)
	if err != nil {
		return true, nil // a corrupt manifest is damaged pre-existing state
	}
	if ok {
		return true, nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s.Path)
		if err != nil {
			return false, err
		}
		if fi.Size() > 0 {
			return true, nil
		}
	}
	return false, nil
}

// SegmentInfo describes one replayed segment.
type SegmentInfo struct {
	Seq     uint64
	Path    string
	Records int
}

// listSegments returns the directory's segment files in sequence order.
func listSegments(dir string) ([]SegmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, ent := range ents {
		if seq, ok := parseSegmentName(ent.Name()); ok {
			segs = append(segs, SegmentInfo{Seq: seq, Path: filepath.Join(dir, ent.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// LiveSegments reads the manifest at dir and returns the segments
// recovery must replay (at or after the manifest's snapshot sequence;
// all segments when no manifest exists), in ascending sequence order,
// after validating that none of them is missing.
func LiveSegments(dir string) (Manifest, []SegmentInfo, error) {
	man, _, err := ReadManifest(dir)
	if err != nil {
		return Manifest{}, nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return Manifest{}, nil, err
	}
	live := segs[:0]
	for _, s := range segs {
		if s.Seq >= man.SnapshotSeq {
			live = append(live, s)
		}
	}
	// The manifest's sequence number names a segment that existed when it
	// was installed (rotation precedes install); its absence is the same
	// damage as a gap between segments and must fail just as loudly.
	if man.SnapshotSeq > 0 && (len(live) == 0 || live[0].Seq != man.SnapshotSeq) {
		return Manifest{}, nil, fmt.Errorf(
			"wal: manifest expects segment %d but the first live segment is missing", man.SnapshotSeq)
	}
	for i := 1; i < len(live); i++ {
		if live[i].Seq != live[i-1].Seq+1 {
			return Manifest{}, nil, fmt.Errorf(
				"wal: segment gap: %d follows %d", live[i].Seq, live[i-1].Seq)
		}
	}
	return man, live, nil
}

// ReplayDir reads the manifest at dir and replays every live segment (at
// or after the manifest's snapshot sequence; all segments when no
// manifest exists). Only the newest segment may end in a torn tail — a
// crash can tear only the segment being appended to; corruption in an
// earlier, sealed segment means acknowledged commits are unrecoverable,
// which is reported as an error rather than silently dropped. Where the
// manifest recorded a sealed segment's metadata, the segment must replay
// to exactly that record count and TID range: this catches damage that
// still decodes cleanly, such as a dropped buffered write that happened
// to end on a record boundary.
func ReplayDir(dir string) (Manifest, []Record, []SegmentInfo, error) {
	man, live, err := LiveSegments(dir)
	if err != nil {
		return Manifest{}, nil, nil, err
	}
	var out []Record
	for i := range live {
		recs, torn, err := ReplaySegment(live[i].Path)
		if err != nil {
			return Manifest{}, nil, nil, err
		}
		if torn && i != len(live)-1 {
			return Manifest{}, nil, nil, fmt.Errorf(
				"wal: corrupt record in sealed segment %s", live[i].Path)
		}
		if meta := man.SealedFor(live[i].Seq); meta != nil {
			if check := MetaFor(live[i].Seq, recs); check != *meta {
				return Manifest{}, nil, nil, fmt.Errorf(
					"wal: sealed segment %s replays to %d records TIDs [%d,%d], manifest sealed it with %d records TIDs [%d,%d]",
					live[i].Path, check.Records, check.MinTID, check.MaxTID, meta.Records, meta.MinTID, meta.MaxTID)
			}
		}
		live[i].Records = len(recs)
		out = append(out, recs...)
	}
	return man, out, live, nil
}

func decodeBody(body []byte) (Record, error) {
	if len(body) < 12 {
		return Record{}, errors.New("wal: short body")
	}
	rec := Record{TID: binary.LittleEndian.Uint64(body)}
	n := binary.LittleEndian.Uint32(body[8:])
	body = body[12:]
	for i := uint32(0); i < n; i++ {
		if len(body) < 4 {
			return Record{}, errors.New("wal: short key length")
		}
		kl := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint32(len(body)) < kl {
			return Record{}, errors.New("wal: short key")
		}
		key := string(body[:kl])
		body = body[kl:]
		if len(body) < 4 {
			return Record{}, errors.New("wal: short value length")
		}
		vl := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint32(len(body)) < vl {
			return Record{}, errors.New("wal: short value")
		}
		val := make([]byte, vl)
		copy(val, body[:vl])
		body = body[vl:]
		rec.Ops = append(rec.Ops, Op{Key: key, Value: val})
	}
	if len(body) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes", len(body))
	}
	return rec, nil
}
