package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"doppel/internal/core"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// Options configures a Checkpointer.
type Options struct {
	// Every is the background checkpoint interval; 0 disables the
	// background loop (manual Checkpoint calls still work).
	Every time.Duration
}

// Stats is a point-in-time summary of checkpoint activity.
type Stats struct {
	Checkpoints  uint64        // completed checkpoints
	Failures     uint64        // failed checkpoint attempts
	LastSeq      uint64        // first live segment after the last checkpoint
	LastEntries  int           // records in the last snapshot
	LastBytes    int64         // size of the last snapshot file
	LastBarrier  time.Duration // time workers were stalled by the last cut (O(1), not O(records))
	LastWalk     time.Duration // duration of the last concurrent walk, encoding and snapshot writes included
	LastCOWSaves int           // records whose barrier value a concurrent writer had to copy
	LastDuration time.Duration // wall time of the last checkpoint
	LastError    string        // message of the last failure, if any
}

// Checkpointer drives snapshot+rotate checkpoints for one database and
// its logger.
type Checkpointer struct {
	db  *core.DB
	log *wal.Logger

	ckptMu sync.Mutex // serializes checkpoints; held across Close's drain
	mu     sync.Mutex // guards stats
	stats  Stats

	closed atomic.Bool
	stop   chan struct{}
	done   chan struct{}
}

// New returns a checkpointer for db and log. When opts.Every > 0 a
// background goroutine checkpoints at that interval until Close.
func New(db *core.DB, log *wal.Logger, opts Options) *Checkpointer {
	c := &Checkpointer{db: db, log: log,
		stop: make(chan struct{}), done: make(chan struct{})}
	if opts.Every > 0 {
		go c.loop(opts.Every)
	} else {
		close(c.done)
	}
	return c
}

func (c *Checkpointer) loop(every time.Duration) {
	defer close(c.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			_ = c.Checkpoint() // failures are recorded in Stats
		}
	}
}

// Stats returns a copy of the checkpointer's counters.
func (c *Checkpointer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Checkpointer) fail(err error) error {
	c.mu.Lock()
	c.stats.Failures++
	c.stats.LastError = err.Error()
	c.mu.Unlock()
	return err
}

// cut is what the barrier captures: the rotation point and the handle
// of the copy-on-write capture started at the quiesced boundary.
type cut struct {
	seq     uint64
	cap     *store.Capture
	barrier time.Duration
	err     error
}

// Checkpoint performs one checkpoint now: start an incremental
// copy-on-write cut at a barrier, walk the store concurrently with the
// resumed workers, write the snapshot, install it in the manifest,
// garbage-collect. It blocks until the checkpoint is durable (or
// failed). Workers must be running (being polled) for the barrier to
// complete.
//
// The barrier itself is O(1): it rotates the log (a bounded flush of
// records already submitted) and installs a capture generation. The
// O(records) work — walking the store, encoding, file I/O — happens
// after the workers resume; writers that beat the walk to a record copy
// its pre-barrier value aside first (store.SaveBeforeWrite), so the
// assembled snapshot is exactly the store's state at the barrier.
func (c *Checkpointer) Checkpoint() error {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if c.closed.Load() {
		return errors.New("checkpoint: checkpointer closed")
	}
	start := time.Now()

	// Publish the barrier; while another phase transition is in flight,
	// wait for it to release and try again. Once published the barrier
	// is guaranteed to run (workers complete it as they poll;
	// core.DB.Close completes it during quiesce).
	cutCh := make(chan cut, 1)
	for {
		busy := c.db.RequestBarrier(func() {
			t0 := time.Now()
			seq, err := c.log.Rotate()
			if err != nil {
				cutCh <- cut{err: err}
				return
			}
			cutCh <- cut{
				seq:     seq,
				cap:     c.db.Store().StartCapture(),
				barrier: time.Since(t0),
			}
		})
		if busy == nil {
			break
		}
		select {
		case <-busy:
		case <-c.stop:
			return errors.New("checkpoint: checkpointer closed")
		}
	}
	cu := <-cutCh
	if cu.err != nil {
		return c.fail(fmt.Errorf("checkpoint: rotate: %w", cu.err))
	}

	// Stream the walk straight to disk: StreamCapture resolves capture
	// claims shard by shard and hands each entry to the snapshot writer,
	// which encodes it into one reused buffer. Memory stays
	// O(copy-on-write saves) instead of O(store). The capture must run
	// exactly once on every path so it is deactivated and writers stop
	// paying the copy-on-write hook: StreamCapture finishes its protocol
	// even when the writer fails, and if WriteFileAtomic fails before
	// its callback runs, the capture is walked with a no-op emit.
	var (
		walked   bool
		cowSaves int
		entries  int
		walk     time.Duration
	)
	stream := func(emit func(store.SnapshotEntry) error) error {
		walked = true
		walkStart := time.Now()
		var err error
		cowSaves, err = c.db.Store().StreamCapture(cu.cap, emit)
		walk = time.Since(walkStart)
		return err
	}
	name := wal.SnapshotFileName(cu.seq)
	size, err := wal.WriteFileAtomic(c.log.Dir(), name, func(w io.Writer) error {
		sw, err := store.NewSnapshotWriter(w)
		if err != nil {
			return err
		}
		if err := stream(sw.Write); err != nil {
			return err
		}
		entries = sw.Count()
		return sw.Close()
	})
	if !walked {
		_ = stream(func(store.SnapshotEntry) error { return nil })
	}
	if err != nil {
		return c.fail(fmt.Errorf("checkpoint: snapshot: %w", err))
	}
	if err := c.log.Install(name, cu.seq); err != nil {
		return c.fail(fmt.Errorf("checkpoint: install: %w", err))
	}

	c.mu.Lock()
	c.stats.Checkpoints++
	c.stats.LastSeq = cu.seq
	c.stats.LastEntries = entries
	c.stats.LastBytes = size
	c.stats.LastBarrier = cu.barrier
	c.stats.LastWalk = walk
	c.stats.LastCOWSaves = cowSaves
	c.stats.LastDuration = time.Since(start)
	c.stats.LastError = ""
	c.mu.Unlock()
	return nil
}

// Close stops the background loop and waits for any in-flight
// checkpoint. It must be called while the database's workers are still
// being driven (before core.DB.Close), so an in-flight barrier can
// complete.
func (c *Checkpointer) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stop)
	<-c.done
	c.ckptMu.Lock() // wait out an in-flight manual Checkpoint
	c.ckptMu.Unlock()
}

// Recovered is the durable state read back from a log directory.
type Recovered struct {
	Manifest wal.Manifest
	Snapshot []store.SnapshotEntry // entries of the manifest's snapshot
	Records  []wal.Record          // live-segment records, log order
	Segments []wal.SegmentInfo     // the segments those records came from
}

// Load reads dir's manifest, snapshot and live segments. It fails
// loudly on a corrupt manifest or snapshot (both are published
// atomically, so corruption means real damage) and tolerates only a
// torn tail in the newest segment.
func Load(dir string) (*Recovered, error) {
	man, recs, segs, err := wal.ReplayDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Recovered{Manifest: man, Records: recs, Segments: segs}
	if man.Snapshot != "" {
		f, err := os.Open(filepath.Join(dir, man.Snapshot))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: manifest names missing snapshot: %w", err)
		}
		r.Snapshot, err = store.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %s: %w", man.Snapshot, err)
		}
	}
	return r, nil
}

// BuildStore materializes the recovered state: snapshot entries first,
// then redo records in log order. A record's op applies only when its
// TID exceeds the key's current TID, which both deduplicates records the
// snapshot already covers and keeps replay idempotent.
func (r *Recovered) BuildStore() (*store.Store, error) {
	st := store.New()
	for _, e := range r.Snapshot {
		st.PreloadTID(e.Key, e.Value, e.TID)
	}
	for _, rec := range r.Records {
		if err := applyRecord(st, rec); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// applyRecord applies one redo record to st under the highest-TID-wins
// rule, atomically per key. Because per-key TIDs are unique and
// monotone in commit order, applying any set of records in any order —
// including concurrently from several goroutines — converges to the
// same state as sequential log-order replay.
func applyRecord(st *store.Store, rec wal.Record) error {
	for _, op := range rec.Ops {
		sr, _ := st.GetOrCreate(op.Key)
		// Optimistic staleness check before paying for the decode; on
		// skewed logs most records lose to the snapshot or a newer record.
		// InstallIfNewer re-validates under the record lock, so a racing
		// concurrent install cannot break the highest-TID-wins merge.
		if tid, _ := sr.TIDWord(); tid >= rec.TID {
			continue
		}
		v, err := store.DecodeValue(op.Value)
		if err != nil {
			return fmt.Errorf("checkpoint: corrupt redo value for %q: %w", op.Key, err)
		}
		sr.InstallIfNewer(v, rec.TID)
	}
	return nil
}

// LoadResult summarizes what LoadStore read.
type LoadResult struct {
	Manifest        wal.Manifest
	SnapshotEntries int               // records restored from the snapshot
	Segments        []wal.SegmentInfo // live segments replayed, with record counts
	Records         int               // redo records replayed from those segments
}

// LoadStore reads dir and materializes the recovered store with
// GOMAXPROCS-way parallelism: the snapshot decodes on that many
// goroutines sharded by key while the live segments replay
// concurrently with it and with each other. Every install — snapshot
// entry or redo op — goes through the per-key highest-TID-wins rule
// with per-record atomicity (see applyRecord and
// store.ReadSnapshotInto), so the merge is correct in any arrival
// order: a redo record for a key always carries a higher TID than the
// snapshot's entry for it. The manifest's sealed-segment metadata, where
// present, is used as a corruption check: a sealed segment must replay
// to exactly the record count and TID range it sealed with. Corruption
// semantics otherwise match Load: only the newest segment may end in a
// torn tail.
func LoadStore(dir string) (*store.Store, LoadResult, error) {
	var res LoadResult
	man, segs, err := wal.LiveSegments(dir)
	if err != nil {
		return nil, res, err
	}
	res.Manifest = man
	st := store.New()
	snapDone := make(chan error, 1)
	go func() {
		n, err := LoadSnapshot(dir, man, st)
		res.SnapshotEntries = n
		snapDone <- err
	}()

	// Replay live segments concurrently. Each worker streams one segment
	// from disk and applies its records; decoding and application of
	// different segments overlap, and the TID filter makes the merge
	// order-independent.
	var (
		mu       sync.Mutex
		firstErr error
		workers  = min(runtime.GOMAXPROCS(0), len(segs))
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				n, err := replaySegmentInto(st, segs[i], man.SealedFor(segs[i].Seq), i == len(segs)-1)
				if err != nil {
					setErr(err)
					continue
				}
				segs[i].Records = n
			}
		}()
	}
	for i := range segs {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	if err := <-snapDone; err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, res, firstErr
	}
	res.Segments = segs
	for _, s := range segs {
		res.Records += s.Records
	}
	return st, res, nil
}

// LoadSnapshot loads the snapshot file named by man into st with
// GOMAXPROCS-way parallel decode and returns the entry count. Entries
// install through the per-key highest-TID-wins filter (see
// store.ReadSnapshotInto), so redo records may install into st before
// or concurrently with the snapshot — as in recovery and a replication
// follower's catch-up, which both call this. A manifest naming no
// snapshot is a no-op.
func LoadSnapshot(dir string, man wal.Manifest, st *store.Store) (int, error) {
	if man.Snapshot == "" {
		return 0, nil
	}
	f, err := os.Open(filepath.Join(dir, man.Snapshot))
	if err != nil {
		return 0, fmt.Errorf("checkpoint: manifest names missing snapshot: %w", err)
	}
	defer f.Close()
	n, err := store.ReadSnapshotInto(f, st, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %s: %w", man.Snapshot, err)
	}
	return n, nil
}

// replaySegmentInto replays one segment into st and returns its record
// count. meta, when non-nil, is the manifest's sealed metadata for the
// segment and must match what the file replays to.
func replaySegmentInto(st *store.Store, seg wal.SegmentInfo, meta *wal.SegmentMeta, newest bool) (int, error) {
	recs, torn, err := wal.ReplaySegment(seg.Path)
	if err != nil {
		return 0, err
	}
	if torn && !newest {
		return 0, fmt.Errorf("wal: corrupt record in sealed segment %s", seg.Path)
	}
	if meta != nil {
		if check := wal.MetaFor(seg.Seq, recs); check != *meta {
			return 0, fmt.Errorf(
				"wal: sealed segment %s replays to %d records TIDs [%d,%d], manifest sealed it with %d records TIDs [%d,%d]",
				seg.Path, check.Records, check.MinTID, check.MaxTID, meta.Records, meta.MinTID, meta.MaxTID)
		}
	}
	for _, rec := range recs {
		if err := applyRecord(st, rec); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}
