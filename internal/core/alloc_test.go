package core

// Allocation regression tests for the commit hot path. The acceptance
// bar, enforced here with testing.AllocsPerRun: with redo logging
// enabled, a committed read-modify-write transaction allocates at most
// 2 heap objects (in practice just the new immutable Value — the redo
// record encodes into per-worker scratch buffers and the logger copies
// it into a recycled batch buffer), and a read-only commit allocates
// nothing at all.

import (
	"fmt"
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// openRedoDB builds a single-worker engine with redo logging into a
// fresh directory and no coordinator, so Attempt(0, ...) runs the
// joined-phase commit protocol and nothing else.
func openRedoDB(tb testing.TB) (*DB, *wal.Logger) {
	tb.Helper()
	l, err := wal.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	st := store.New()
	st.Preload("k", store.IntValue(0))
	cfg := DefaultConfig(1)
	cfg.PhaseLength = 0
	cfg.Redo = l
	db := Open(st, cfg)
	tb.Cleanup(func() {
		db.Close()
		_ = l.Close()
	})
	return db, l
}

func attemptCommit(tb testing.TB, db *DB, fn engine.TxFunc) {
	if out, err := db.Attempt(0, fn, 0); err != nil || out != engine.Committed {
		tb.Fatalf("outcome %v err %v", out, err)
	}
}

// TestCommitPathAllocs asserts the steady-state allocation budget of
// the two hot commit shapes with redo logging enabled.
func TestCommitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	db, _ := openRedoDB(t)
	read := func(tx engine.Tx) error { _, err := tx.GetInt("k"); return err }
	write := func(tx engine.Tx) error { return tx.Add("k", 1) }
	// Warm up: grow the transaction's read/write-set slices, the
	// worker's redo scratch buffers and the logger's batch buffers to
	// their steady-state capacities.
	for i := 0; i < 2000; i++ {
		attemptCommit(t, db, write)
		attemptCommit(t, db, read)
	}
	if n := testing.AllocsPerRun(1000, func() { attemptCommit(t, db, read) }); n > 0 {
		t.Errorf("read-only commit path allocates %.2f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { attemptCommit(t, db, write) }); n > 2 {
		t.Errorf("committed read-modify-write path allocates %.2f objects/op, want <= 2", n)
	}
}

// TestCommitPathAllocsMultiWrite covers the multi-op record shape: the
// insertion sort, per-record grouping and one redo record with several
// ops must stay within one Value allocation per written record.
func TestCommitPathAllocsMultiWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	db, _ := openRedoDB(t)
	db.st.Preload("a", store.IntValue(0))
	db.st.Preload("b", store.IntValue(0))
	write := func(tx engine.Tx) error {
		if err := tx.Add("b", 1); err != nil {
			return err
		}
		if err := tx.Add("a", 2); err != nil {
			return err
		}
		return tx.Add("k", 3)
	}
	for i := 0; i < 2000; i++ {
		attemptCommit(t, db, write)
	}
	// One new Value per written record plus slack for amortized growth.
	if n := testing.AllocsPerRun(1000, func() { attemptCommit(t, db, write) }); n > 4 {
		t.Errorf("3-write commit allocates %.2f objects/op, want <= 4", n)
	}
}

// TestSplitAddAllocs: a split-phase Add on a slice already written in
// this phase accumulates in the slice's own value, so the commit
// allocates nothing at all — precompute, commit and applySliceWrites.
func TestSplitAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	db, _ := openRedoDB(t)
	db.SplitHint("k", store.OpAdd)
	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	db.Poll(0)
	if db.Phase() != PhaseSplit {
		t.Fatalf("phase %v, want split", db.Phase())
	}
	add := func(tx engine.Tx) error { return tx.Add("k", 1) }
	for i := 0; i < 100; i++ {
		attemptCommit(t, db, add)
	}
	if n := testing.AllocsPerRun(1000, func() { attemptCommit(t, db, add) }); n != 0 {
		t.Errorf("split-phase Add commit allocates %.2f objects/op, want 0", n)
	}
	if !db.RequestJoinedPhase() {
		t.Fatal("joined phase refused")
	}
	db.Poll(0)
	// 100 warm-up Adds, then AllocsPerRun's 1000 runs plus its own
	// warm-up call.
	if n, _ := db.Store().Get("k").Value().AsInt(); n != 1101 {
		t.Fatalf("reconciled counter = %d, want 1101", n)
	}
}

// BenchmarkCommitReadOnlyRedo reports the read-only commit path's
// time and allocs/op with redo logging configured (which it never
// touches — reads log nothing).
func BenchmarkCommitReadOnlyRedo(b *testing.B) {
	db, _ := openRedoDB(b)
	fn := func(tx engine.Tx) error { _, err := tx.GetInt("k"); return err }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attemptCommit(b, db, fn)
	}
}

// BenchmarkCommitSingleWriteRedo reports the committed single-write
// path end to end: OCC commit, redo record encode, logger append.
func BenchmarkCommitSingleWriteRedo(b *testing.B) {
	db, l := openRedoDB(b)
	fn := func(tx engine.Tx) error { return tx.Add("k", 1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attemptCommit(b, db, fn)
	}
	b.StopTimer()
	// Wait out the logger's backlog so Close time is not billed to the
	// last iteration of a subsequent benchmark.
	deadline := time.Now().Add(10 * time.Second)
	for l.Durable() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// TestPhaseCycleAllocs: a full joined→split→joined cycle over an
// unchanged set of 32 hinted keys allocates its two transitions, their
// two release channels and the one value reconciliation publishes for
// the key that took a slice write, and nothing per split key: the
// classifier clears and refills its maps and republishes the last split
// set, and the workers reuse their slice arrays and stash buffers. A
// stashed read rides along, so the stash and its drain are covered too.
func TestPhaseCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	st := store.New()
	cfg := DefaultConfig(2)
	cfg.PhaseLength = 0
	db := Open(st, cfg)
	defer db.Close()
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("h%02d", i)
		st.Preload(k, store.IntValue(0))
		db.SplitHint(k, store.OpAdd)
	}
	add := func(tx engine.Tx) error { return tx.Add("h00", 1) }
	read := func(tx engine.Tx) error { _, err := tx.GetInt("h00"); return err }
	cycle := func() {
		if !db.RequestSplitPhase() {
			t.Fatal("split phase refused")
		}
		db.Poll(0)
		db.Poll(1)
		if out, err := db.Attempt(0, add, 0); err != nil || out != engine.Committed {
			t.Fatalf("split-phase add: %v %v", out, err)
		}
		if out, err := db.Attempt(1, read, 0); err != nil || out != engine.Stashed {
			t.Fatalf("split-phase read: %v %v", out, err)
		}
		if !db.RequestJoinedPhase() {
			t.Fatal("joined phase refused")
		}
		db.Poll(0)
		db.Poll(1)
		if db.StashLen(1) != 0 {
			t.Fatal("stash not drained")
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	n := testing.AllocsPerRun(100, cycle)
	t.Logf("%.1f allocs per cycle", n)
	if n > 5 {
		t.Errorf("a phase cycle allocates %.1f objects, want <= 5", n)
	}
}
