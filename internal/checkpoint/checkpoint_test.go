package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// harness drives a coordinator-less core.DB whose workers are polled
// from the test goroutine, the way checkpoint barriers require.
type harness struct {
	t   *testing.T
	db  *core.DB
	log *wal.Logger
}

func newHarness(t *testing.T, workers int) *harness {
	t.Helper()
	log, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(workers)
	cfg.PhaseLength = 0
	cfg.Redo = log
	return &harness{t: t, db: core.Open(store.New(), cfg), log: log}
}

func (h *harness) commit(w int, fn engine.TxFunc) {
	h.t.Helper()
	for i := 0; i < 10000; i++ {
		out, err := h.db.Attempt(w, fn, engine.Now())
		if err != nil {
			h.t.Fatalf("attempt: %v", err)
		}
		if out == engine.Committed {
			return
		}
	}
	h.t.Fatal("never committed")
}

// checkpoint runs c.Checkpoint while polling every worker so the
// barrier can complete.
func (h *harness) checkpoint(c *Checkpointer) error {
	h.t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Checkpoint() }()
	for {
		select {
		case err := <-errCh:
			return err
		default:
			for w := 0; w < h.db.Workers(); w++ {
				h.db.Poll(w)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestCheckpointRotateInstallRecover(t *testing.T) {
	h := newHarness(t, 2)
	defer h.log.Close()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		n := int64(i)
		h.commit(i%2, func(tx engine.Tx) error { return tx.PutInt(key, n) })
	}
	c := New(h.db, h.log, Options{})
	defer c.Close()
	if err := h.checkpoint(c); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Checkpoints != 1 || st.Failures != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LastSeq != 2 {
		t.Fatalf("rotation landed on segment %d, want 2", st.LastSeq)
	}
	if st.LastEntries != 10 {
		t.Fatalf("snapshot has %d entries, want 10", st.LastEntries)
	}
	if st.LastBytes <= 0 {
		t.Fatalf("snapshot size %d", st.LastBytes)
	}

	// Post-checkpoint traffic lands in the new segment only.
	h.commit(0, func(tx engine.Tx) error { return tx.PutInt("k3", 333) })
	h.commit(1, func(tx engine.Tx) error { return tx.PutInt("new", 1) })
	h.db.Close()
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(h.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.Snapshot != wal.SnapshotFileName(2) || rec.Manifest.SnapshotSeq != 2 {
		t.Fatalf("manifest: %+v", rec.Manifest)
	}
	if len(rec.Snapshot) != 10 {
		t.Fatalf("snapshot entries: %d", len(rec.Snapshot))
	}
	if len(rec.Segments) != 1 || rec.Segments[0].Seq != 2 {
		t.Fatalf("bounded replay violated: live segments %+v", rec.Segments)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("replayed %d records, want only the 2 post-checkpoint ones", len(rec.Records))
	}
	built, err := rec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	wantInt := func(key string, want int64) {
		t.Helper()
		r := built.Get(key)
		if r == nil {
			t.Fatalf("%s missing after recovery", key)
		}
		n, err := r.Value().AsInt()
		if err != nil || n != want {
			t.Fatalf("%s = %d (%v), want %d", key, n, err, want)
		}
	}
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		wantInt(fmt.Sprintf("k%d", i), int64(i))
	}
	wantInt("k3", 333) // post-snapshot record overrides snapshot value
	wantInt("new", 1)
}

// TestBuildStoreSkipsStaleRecords: replay applies a redo record only
// when its TID advances past the key's snapshot TID, so records the
// snapshot already covers are no-ops.
func TestBuildStoreSkipsStaleRecords(t *testing.T) {
	r := &Recovered{
		Snapshot: []store.SnapshotEntry{{Key: "k", TID: 500, Value: store.IntValue(42)}},
		Records: []wal.Record{
			{TID: 400, Ops: []wal.Op{{Key: "k", Value: store.EncodeValue(store.IntValue(1))}}},
			{TID: 600, Ops: []wal.Op{{Key: "j", Value: store.EncodeValue(store.IntValue(2))}}},
		},
	}
	st, err := r.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st.Get("k").Value().AsInt(); n != 42 {
		t.Fatalf("stale record applied: k=%d", n)
	}
	if n, _ := st.Get("j").Value().AsInt(); n != 2 {
		t.Fatalf("fresh record dropped: j=%d", n)
	}
	if tid, _ := st.Get("k").TIDWord(); tid != 500 {
		t.Fatalf("k TID %d, want 500", tid)
	}
}

// barrier publishes a checkpoint-style barrier running fn at the
// quiesced boundary and polls every worker until it has completed.
func (h *harness) barrier(fn func()) {
	h.t.Helper()
	done := make(chan struct{})
	if busy := h.db.RequestBarrier(func() { fn(); close(done) }); busy != nil {
		h.t.Fatal("barrier refused: a transition is in flight")
	}
	for {
		select {
		case <-done:
			return
		default:
			for w := 0; w < h.db.Workers(); w++ {
				h.db.Poll(w)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestIncrementalCutEqualsBarrierState is the engine-level
// copy-on-write property test (run with -race): writers keep committing
// through the engine while the walk runs, and the capture must equal
// the store state observed inside the barrier, byte for byte and TID
// for TID.
func TestIncrementalCutEqualsBarrierState(t *testing.T) {
	const workers = 3
	const keys = 200
	h := newHarness(t, workers)
	defer h.log.Close()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		n := int64(i)
		h.commit(i%workers, func(tx engine.Tx) error { return tx.PutInt(key, n) })
	}

	// The barrier snapshots the expected state the expensive way —
	// O(records) inside the barrier is fine for a test oracle — and
	// starts the capture that must reproduce it.
	var want []store.SnapshotEntry
	var capt *store.Capture
	h.barrier(func() {
		want = h.db.Store().SnapshotEntries()
		capt = h.db.Store().StartCapture()
	})

	// Overwrite some keys through the engine before the walk starts, so
	// the writer-side copy path is exercised deterministically: their
	// barrier values can only come from copy-on-write saves.
	const preWalkWrites = 20
	for i := 0; i < preWalkWrites; i++ {
		key := fmt.Sprintf("k%d", i)
		h.commit(i%workers, func(tx engine.Tx) error { return tx.Add(key, 1000) })
	}

	// Hammer the store through the engine while collecting: every commit
	// goes through the copy-on-write hook.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", (i*13+w)%keys)
				fn := func(tx engine.Tx) error { return tx.Add(key, 1) }
				out, err := h.db.Attempt(w, fn, engine.Now())
				if err != nil {
					t.Error(err)
					return
				}
				_ = out // aborts and pauses just retry on the next loop
			}
		}(w)
	}
	entries, cowSaves := h.db.Store().CollectCapture(capt)
	close(stop)
	wg.Wait()
	if cowSaves < preWalkWrites {
		t.Fatalf("%d copy-on-write saves, want at least the %d pre-walk overwrites", cowSaves, preWalkWrites)
	}

	wantByKey := map[string]store.SnapshotEntry{}
	for _, e := range want {
		if e.Value != nil {
			wantByKey[e.Key] = e
		}
	}
	if len(entries) != len(wantByKey) {
		t.Fatalf("captured %d entries, want %d", len(entries), len(wantByKey))
	}
	for _, e := range entries {
		we, ok := wantByKey[e.Key]
		if !ok {
			t.Fatalf("capture has unexpected key %q", e.Key)
		}
		if e.TID != we.TID || e.Value != we.Value {
			t.Fatalf("key %q: captured (tid=%d, %p), barrier state (tid=%d, %p)",
				e.Key, e.TID, e.Value, we.TID, we.Value)
		}
	}
	t.Logf("capture matched barrier state; %d records were writer-copied", cowSaves)
}

// TestCrashMidIncrementalCheckpoint simulates a crash between the
// incremental cut and the manifest install: the rotation and the
// snapshot file (or its temporary) may exist, but the manifest still
// names the previous checkpoint. Recovery must come up from the prior
// snapshot plus every segment after it, and the next Install must
// garbage-collect the orphan files.
func TestCrashMidIncrementalCheckpoint(t *testing.T) {
	h := newHarness(t, 2)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		h.commit(i%2, func(tx engine.Tx) error { return tx.PutInt(key, 1) })
	}
	c := New(h.db, h.log, Options{})
	if err := h.checkpoint(c); err != nil { // checkpoint #1 completes
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		h.commit(i%2, func(tx engine.Tx) error { return tx.PutInt(key, 2) })
	}

	// Checkpoint #2 up to — but not including — Install, mirroring
	// Checkpoint's own sequence: rotate + capture at a barrier, walk,
	// write the snapshot file. Then "crash".
	var seq uint64
	var capt *store.Capture
	h.barrier(func() {
		var err error
		seq, err = h.log.Rotate()
		if err != nil {
			t.Error(err)
			return
		}
		capt = h.db.Store().StartCapture()
	})
	if capt == nil {
		t.Fatal("barrier did not run")
	}
	if _, err := wal.WriteFileAtomic(h.log.Dir(), wal.SnapshotFileName(seq), func(w io.Writer) error {
		sw, err := store.NewSnapshotWriter(w)
		if err != nil {
			return err
		}
		if _, err := h.db.Store().StreamCapture(capt, sw.Write); err != nil {
			return err
		}
		return sw.Close()
	}); err != nil {
		t.Fatal(err)
	}
	// A leftover temporary from an even-earlier crash point.
	if err := os.WriteFile(filepath.Join(h.log.Dir(), "snapshot-junk.db.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Close()
	h.db.Close()
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: manifest still names checkpoint #1's snapshot; replay
	// must start there and cross the mid-checkpoint rotation.
	rec, err := Load(h.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.Snapshot == wal.SnapshotFileName(seq) {
		t.Fatal("aborted checkpoint's snapshot reached the manifest")
	}
	built, err := rec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	st, res, err := LoadStore(h.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || len(res.Segments) < 2 {
		t.Fatalf("parallel load did not cross the aborted rotation: %+v", res)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		for name, s := range map[string]*store.Store{"sequential": built, "parallel": st} {
			r := s.Get(key)
			if r == nil {
				t.Fatalf("%s: %s missing", name, key)
			}
			if n, _ := r.Value().AsInt(); n != 2 {
				t.Fatalf("%s: %s = %d, want 2", name, key, n)
			}
		}
	}

	// The next completed checkpoint must collect the orphan snapshot and
	// the stray temporary.
	log2, err := wal.Open(h.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(1)
	cfg.PhaseLength = 0
	cfg.Redo = log2
	db2 := core.Open(st, cfg)
	h2 := &harness{t: t, db: db2, log: log2}
	c2 := New(db2, log2, Options{})
	if err := h2.checkpoint(c2); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	db2.Close()
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(h.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	man, _, err := wal.ReadManifest(h.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if filepath.Ext(name) == ".tmp" {
			t.Fatalf("stray temporary %s survived the next checkpoint", name)
		}
		if name != man.Snapshot && len(name) > 9 && name[:9] == "snapshot-" {
			t.Fatalf("orphan snapshot %s survived the next checkpoint", name)
		}
	}
}

// TestCheckpointWaitsOutInFlightTransition: a checkpoint requested while
// a split transition is in flight waits for that transition's release
// and then publishes its own barrier. Worker 1 is left unpolled, so the
// split transition cannot complete and the checkpoint must not either;
// once worker 1 polls, both finish.
func TestCheckpointWaitsOutInFlightTransition(t *testing.T) {
	h := newHarness(t, 2)
	defer h.log.Close()
	defer h.db.Close()
	c, errCh := h.checkpointDuringSplitTransition()
	defer c.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Stats().Checkpoints; got != 1 {
				t.Fatalf("%d checkpoints completed, want 1", got)
			}
			if h.db.PhaseChanges() == 0 {
				t.Fatal("the split transition never completed")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never completed after worker 1 polled")
		}
		h.db.Poll(1)
		h.db.Poll(0)
		time.Sleep(50 * time.Microsecond)
	}
}

// checkpointDuringSplitTransition publishes a split transition that
// only worker 0 acknowledges, starts a checkpoint in the background and
// checks that it is still waiting 20 ms later.
func (h *harness) checkpointDuringSplitTransition() (*Checkpointer, <-chan error) {
	h.t.Helper()
	h.commit(0, func(tx engine.Tx) error { return tx.PutInt("hot", 0) })
	h.db.SplitHint("hot", store.OpAdd)
	if !h.db.RequestSplitPhase() {
		h.t.Fatal("split phase refused")
	}
	h.db.Poll(0) // worker 0 acknowledges; worker 1 holds the transition open

	c := New(h.db, h.log, Options{})
	errCh := make(chan error, 1)
	go func() { errCh <- c.Checkpoint() }()
	select {
	case err := <-errCh:
		h.t.Fatalf("checkpoint finished (%v) while the split transition was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	if h.db.Phase() != core.PhaseJoined {
		h.t.Fatalf("phase %v before worker 1 acknowledged, want joined", h.db.Phase())
	}
	return c, errCh
}

// TestCheckpointerCloseWhileWaiting: Close must not hang on a checkpoint
// that is waiting out another transition; the checkpoint gives up with
// an error and publishes no barrier.
func TestCheckpointerCloseWhileWaiting(t *testing.T) {
	h := newHarness(t, 2)
	defer h.log.Close()
	defer h.db.Close()
	c, errCh := h.checkpointDuringSplitTransition()
	c.Close()
	if err := <-errCh; err == nil {
		t.Fatal("checkpoint succeeded after Close")
	}
	if c.Stats().Checkpoints != 0 {
		t.Fatalf("stats after an abandoned checkpoint: %+v", c.Stats())
	}
}

func TestCheckpointerClosedErrors(t *testing.T) {
	h := newHarness(t, 1)
	defer h.db.Close()
	defer h.log.Close()
	c := New(h.db, h.log, Options{})
	c.Close()
	c.Close() // idempotent
	if err := c.Checkpoint(); err == nil {
		t.Fatal("expected error after close")
	}
}

func TestBackgroundCheckpointLoop(t *testing.T) {
	h := newHarness(t, 1)
	defer h.log.Close()
	h.commit(0, func(tx engine.Tx) error { return tx.PutInt("k", 7) })
	c := New(h.db, h.log, Options{Every: 2 * time.Millisecond})
	// Keep the worker polled until the checkpointer has fully stopped:
	// the loop may begin another checkpoint at any tick, and its barrier
	// needs a polling worker to complete (same ordering doppel.DB.Close
	// follows).
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			default:
				h.db.Poll(0)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	close(pollStop)
	<-pollDone
	h.db.Close()
	if c.Stats().Checkpoints == 0 {
		t.Fatal("background loop never checkpointed")
	}
}
