package doppel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"doppel/internal/checkpoint"
	"doppel/internal/core"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// TestRedoLogRecovery writes through a logged database (including split
// phases so reconciliation merges get logged), closes it, and recovers a
// fresh database from the log directory.
func TestRedoLogRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, PhaseLength: 2 * time.Millisecond, RedoLog: dir}
	db, err := OpenErr(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.SplitHint("counter", OpAdd)
	for i := 0; i < 200; i++ {
		if err := db.Exec(func(tx Tx) error { return tx.Add("counter", 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Exec(func(tx Tx) error {
		if err := tx.PutBytes("name", []byte("doppel")); err != nil {
			return err
		}
		if err := tx.Max("best", 77); err != nil {
			return err
		}
		return tx.TopKInsert("board", 5, []byte("entry"), 3)
	}); err != nil {
		t.Fatal(err)
	}
	// Give stashes/reconciliation a chance to settle, then close (which
	// forces the final reconciliation and flushes the log).
	if err := db.Exec(func(tx Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	db.Close()

	rec, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	err = rec.Exec(func(tx Tx) error {
		n, err := tx.GetInt("counter")
		if err != nil {
			return err
		}
		if n != 200 {
			return fmt.Errorf("counter %d after recovery", n)
		}
		b, err := tx.GetBytes("name")
		if err != nil {
			return err
		}
		if string(b) != "doppel" {
			return fmt.Errorf("name %q", b)
		}
		best, err := tx.GetInt("best")
		if err != nil {
			return err
		}
		if best != 77 {
			return fmt.Errorf("best %d", best)
		}
		es, err := tx.GetTopK("board")
		if err != nil {
			return err
		}
		if len(es) != 1 || string(es[0].Data) != "entry" {
			return fmt.Errorf("board %v", es)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoverThenCrashAgain is the regression test for the seed's
// truncate-on-open bug: wal.Open used os.Create, so a database that
// recovered and then crashed (or merely closed) before writing anything
// new silently lost the entire recovered state. Recovery must survive
// any number of crash → recover cycles, with and without new writes.
func TestRecoverThenCrashAgain(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 2, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("gen", 1) }); err != nil {
		t.Fatal(err)
	}
	db.Close() // crash #1 (Close flushes; the file is now the crash image)

	wantGen := func(db *DB, want int64) {
		t.Helper()
		err := db.Exec(func(tx Tx) error {
			n, err := tx.GetInt("gen")
			if err != nil {
				return err
			}
			if n != want {
				return fmt.Errorf("gen = %d, want %d", n, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Recover and crash again immediately, writing nothing. The seed bug
	// truncated the log right here.
	db2, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantGen(db2, 1)
	db2.Close() // crash #2

	// Recover again: generation 1 must still be there; add generation 2.
	db3, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantGen(db3, 1)
	if err := db3.Exec(func(tx Tx) error { return tx.PutInt("gen", 2) }); err != nil {
		t.Fatal(err)
	}
	db3.Close() // crash #3

	// Both generations' effects must survive.
	db4, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantGen(db4, 2)
	db4.Close()
}

// TestCheckpointBoundsReplay is the acceptance test for bounded
// recovery: after a checkpoint, recovery loads the snapshot and replays
// only post-snapshot segments, verified via segment accounting.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 2, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	const preCheckpoint = 500
	for i := 0; i < preCheckpoint; i++ {
		key := fmt.Sprintf("k%d", i%50)
		if err := db.Exec(func(tx Tx) error { return tx.Add(key, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cs := db.CheckpointStats()
	if cs.Checkpoints != 1 || cs.LastEntries != 50 {
		t.Fatalf("checkpoint stats: %+v", cs)
	}
	// A handful of post-checkpoint transactions: this is all recovery
	// should have to replay.
	const postCheckpoint = 7
	for i := 0; i < postCheckpoint; i++ {
		if err := db.Exec(func(tx Tx) error { return tx.PutInt(fmt.Sprintf("post%d", i), int64(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	rec, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rs := rec.LastRecovery()
	if rs.SnapshotFile == "" || rs.SnapshotEntries != 50 {
		t.Fatalf("recovery did not use the snapshot: %+v", rs)
	}
	if rs.SegmentsReplayed != 1 {
		t.Fatalf("replayed %d segments, want only the 1 post-snapshot segment (%+v)", rs.SegmentsReplayed, rs)
	}
	if rs.RecordsReplayed >= preCheckpoint {
		t.Fatalf("replay not bounded: %d records for %d post-checkpoint writes (%+v)",
			rs.RecordsReplayed, postCheckpoint, rs)
	}
	// And the state is still complete.
	err = rec.Exec(func(tx Tx) error {
		for i := 0; i < 50; i++ {
			n, err := tx.GetInt(fmt.Sprintf("k%d", i))
			if err != nil {
				return err
			}
			if n != preCheckpoint/50 {
				return fmt.Errorf("k%d = %d, want %d", i, n, preCheckpoint/50)
			}
		}
		for i := 0; i < postCheckpoint; i++ {
			n, err := tx.GetInt(fmt.Sprintf("post%d", i))
			if err != nil {
				return err
			}
			if n != int64(i) {
				return fmt.Errorf("post%d = %d", i, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCheckpointing exercises Options.CheckpointEvery under
// live traffic: checkpoints must happen, and recovery afterwards must
// see every committed transaction.
func TestBackgroundCheckpointing(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{
		Workers:         2,
		PhaseLength:     2 * time.Millisecond,
		RedoLog:         dir,
		CheckpointEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.SplitHint("hot", OpAdd)
	const txns = 400
	for i := 0; i < txns; i++ {
		if err := db.Exec(func(tx Tx) error { return tx.Add("hot", 1) }); err != nil {
			t.Fatal(err)
		}
	}
	// Let at least one checkpoint land while traffic has stopped too.
	deadline := time.Now().Add(5 * time.Second)
	for db.CheckpointStats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cs := db.CheckpointStats()
	db.Close()
	if cs.Checkpoints == 0 {
		t.Fatal("no background checkpoint completed")
	}

	rec, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	err = rec.Exec(func(tx Tx) error {
		n, err := tx.GetInt("hot")
		if err != nil {
			return err
		}
		if n != txns {
			return fmt.Errorf("hot = %d, want %d", n, txns)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storeState flattens a store into key → canonical value encoding for
// deep comparison.
func storeState(st *store.Store) map[string]string {
	out := map[string]string{}
	for _, e := range st.SnapshotEntries() {
		out[e.Key] = string(store.EncodeValue(e.Value))
	}
	return out
}

// TestRecoverPropertyMixedWorkload is the randomized property test:
// after a mixed workload of every splittable operation plus Put, run by
// concurrent workers with checkpoints interleaved, the recovered store
// must deep-equal the store at Close.
func TestRecoverPropertyMixedWorkload(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenErr(Options{
				Workers:     2,
				PhaseLength: 2 * time.Millisecond,
				RedoLog:     dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			db.SplitHint("add:hot", OpAdd)

			const workers = 4
			const txnsPerWorker = 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed*1000 + int64(w)))
					for i := 0; i < txnsPerWorker; i++ {
						n := int64(r.Intn(100) + 1)
						key := r.Intn(10)
						var fn TxFunc
						switch r.Intn(7) {
						case 0:
							k := fmt.Sprintf("add:%d", key)
							if r.Intn(4) == 0 {
								k = "add:hot"
							}
							fn = func(tx Tx) error { return tx.Add(k, n) }
						case 1:
							fn = func(tx Tx) error { return tx.Max(fmt.Sprintf("max:%d", key), n) }
						case 2:
							fn = func(tx Tx) error { return tx.Min(fmt.Sprintf("min:%d", key), -n) }
						case 3:
							fn = func(tx Tx) error { return tx.Mult(fmt.Sprintf("mult:%d", key), 1+n%3) }
						case 4:
							fn = func(tx Tx) error {
								return tx.OPut(fmt.Sprintf("oput:%d", key), Order{A: n, B: int64(i)},
									[]byte(fmt.Sprintf("o%d", n)))
							}
						case 5:
							fn = func(tx Tx) error {
								return tx.TopKInsert(fmt.Sprintf("topk:%d", key%3), n,
									[]byte(fmt.Sprintf("e%d", n)), 5)
							}
						default:
							fn = func(tx Tx) error {
								return tx.PutBytes(fmt.Sprintf("put:%d", key), []byte(fmt.Sprintf("v%d", n)))
							}
						}
						if err := db.Exec(fn); err != nil {
							t.Error(err)
							return
						}
						// A mid-workload checkpoint from one goroutine
						// exercises cut-under-traffic.
						if w == 0 && i == txnsPerWorker/2 {
							if err := db.Checkpoint(); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			db.Close() // final reconciliation + flush
			want := storeState(db.Internal().Store())

			rec, err := Recover(dir, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			got := storeState(rec.Internal().Store())
			if len(got) != len(want) {
				t.Fatalf("recovered %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %q: recovered %x, want %x", k, got[k], v)
				}
			}
		})
	}
}

// TestParallelRecoveryMatchesSequential: recovery — the snapshot load
// overlapped with parallel replay of a multi-segment log — must rebuild
// exactly the final in-memory state, and exactly what the sequential
// reference loader (checkpoint.Load + BuildStore) builds, TIDs included.
// The log has a snapshot, a split key and a size-rotated tail, so the
// snapshot and several segments install into the store concurrently:
// the end-to-end check that the highest-TID-wins merge is
// order-independent.
func TestParallelRecoveryMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{
		Workers:         2,
		PhaseLength:     2 * time.Millisecond,
		RedoLog:         dir,
		MaxSegmentBytes: 2 << 10, // tiny segments: force many rotations
	})
	if err != nil {
		t.Fatal(err)
	}
	db.SplitHint("hot", OpAdd)
	const txns = 2000
	run := func(base int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < txns/8; i++ {
					key := fmt.Sprintf("k%d", (i*5+w+base)%97)
					if i%10 == 0 {
						key = "hot"
					}
					if err := db.Exec(func(tx Tx) error { return tx.Add(key, 1) }); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	run(0)
	// A mid-run checkpoint gives recovery both a snapshot and a segment
	// tail to install concurrently.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	run(31)
	db.Close()
	if db.Internal().PhaseChanges() == 0 {
		t.Fatal("no phase change ran: the hot key was never split")
	}
	want := storeState(db.Internal().Store())

	ref, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	refStore, err := ref.BuildStore()
	if err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := rec.LastRecovery()
	rec.Close()
	if rs.SnapshotEntries == 0 || rs.RecordsReplayed == 0 {
		t.Fatalf("scenario too weak: snapshot %d entries, %d records replayed", rs.SnapshotEntries, rs.RecordsReplayed)
	}
	if rs.SegmentsReplayed < 3 {
		t.Fatalf("tail not multi-segment (%d segments): size rotation not exercised", rs.SegmentsReplayed)
	}
	if rs.SnapshotEntries != len(ref.Snapshot) || rs.RecordsReplayed != len(ref.Records) {
		t.Fatalf("recovery read %d snapshot entries and %d records, the reference %d and %d",
			rs.SnapshotEntries, rs.RecordsReplayed, len(ref.Snapshot), len(ref.Records))
	}
	got := rec.Internal().Store()

	for name, st := range map[string]map[string]string{"recovered": storeState(got), "reference": storeState(refStore)} {
		if len(st) != len(want) {
			t.Fatalf("%s store: %d keys, want %d", name, len(st), len(want))
		}
		for k, v := range want {
			if st[k] != v {
				t.Fatalf("%s store: key %q = %x, want %x", name, k, st[k], v)
			}
		}
	}
	for _, e := range refStore.SnapshotEntries() {
		r := got.Get(e.Key)
		if r == nil {
			t.Fatalf("key %q missing after recovery", e.Key)
		}
		if tid, _ := r.TIDWord(); tid != e.TID {
			t.Fatalf("key %q: recovered TID %d, reference TID %d", e.Key, tid, e.TID)
		}
	}
}

// TestSizeRotationWithCheckpointGC: many small sealed segments
// accumulate between checkpoints and a checkpoint must garbage-collect
// all of them, leaving a bounded directory.
func TestSizeRotationWithCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	// Commits are asynchronous, so the 500 records may reach the log in
	// a single group commit; MaxSegmentBytes must still cut it into 1 KiB
	// segments. Puts of distinct values do not commute, so the
	// classifier never splits these keys and every commit logs its own
	// record.
	db, err := OpenErr(Options{
		Workers:         2,
		RedoLog:         dir,
		MaxSegmentBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i%20)
		n := int64(i)
		put := func(tx Tx) error { return tx.PutInt(key, n) }
		if i%2 == 1 {
			put = func(tx Tx) error { return tx.PutBytes(key, []byte(fmt.Sprintf("v%d", n))) }
		}
		if err := db.Exec(put); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cs := db.CheckpointStats()
	db.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segments := 0
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) == ".log" {
			segments++
		}
	}
	// Everything before the checkpoint's rotation point is collected;
	// only the post-checkpoint tail (and anything sealed during the
	// concurrent walk) remains.
	if segments > 3 {
		t.Fatalf("%d segments survived the checkpoint; GC did not cope with size rotation", segments)
	}
	if cs.LastSeq < 5 {
		t.Fatalf("checkpoint rotated to segment %d; size rotation never triggered", cs.LastSeq)
	}
}

// TestRedoSyncsGroupCommit: asynchronous commits share group-commit
// syncs — one per cadence, far fewer than one per commit — while a
// SyncCommit acknowledgement forces its sync at once instead of waiting
// for the cadence.
func TestRedoSyncsGroupCommit(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		db, err := OpenErr(Options{Workers: 2, RedoLog: t.TempDir(),
			Engine: core.Config{DisableAutoSplit: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		n := 0
		end := time.Now().Add(50 * time.Millisecond)
		for ; n < 400 || time.Now().Before(end); n++ {
			key := fmt.Sprintf("k%d", n%64)
			if err := db.Exec(func(tx Tx) error { return tx.Add(key, 1) }); err != nil {
				t.Fatal(err)
			}
		}
		// Every commit logged one record; wait for the last to reach disk.
		deadline := time.Now().Add(10 * time.Second)
		for db.DurableLSN() < uint64(n) {
			if time.Now().After(deadline) {
				t.Fatalf("durable watermark stuck at %d of %d records", db.DurableLSN(), n)
			}
			time.Sleep(time.Millisecond)
		}
		s := db.Stats()
		t.Logf("%d commits, %d group-commit syncs", n, s.RedoSyncs)
		if s.RedoSyncs == 0 || s.RedoSyncs*4 > uint64(n) {
			t.Fatalf("%d commits took %d group-commit syncs; want a few shared ones", n, s.RedoSyncs)
		}
	})
	t.Run("sync-commit", func(t *testing.T) {
		restore := wal.SetSyncCadenceForTesting(time.Hour)
		db, err := OpenErr(Options{Workers: 2, RedoLog: t.TempDir(), SyncCommit: true,
			Engine: core.Config{DisableAutoSplit: true}})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		// No deferred Close: if an acknowledgement is stuck behind the
		// cadence, Close would wait an hour for its worker too.
		const n = 5
		for i := 0; i < n; i++ {
			done := make(chan error, 1)
			go func() { done <- db.Exec(func(tx Tx) error { return tx.PutInt("k", int64(i)) }) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a SyncCommit Exec waited for the group-commit cadence")
			}
		}
		if d, s := db.DurableLSN(), db.Stats(); d != n || s.RedoSyncs < n {
			t.Fatalf("%d acknowledged commits: watermark %d, %d syncs", n, d, s.RedoSyncs)
		}
		db.Close()
	})
}

// TestRecoveredTIDsStayMonotonic: writes after recovery must generate
// per-key TIDs above the recovered ones, or a later recovery would
// drop them as stale.
func TestRecoveredTIDsStayMonotonic(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 2, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Exec(func(tx Tx) error { return tx.PutInt("k", int64(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Exec(func(tx Tx) error { return tx.PutInt("k", 999) }); err != nil {
		t.Fatal(err)
	}
	db2.Close()

	db3, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	err = db3.Exec(func(tx Tx) error {
		n, err := tx.GetInt("k")
		if err != nil {
			return err
		}
		if n != 999 {
			return fmt.Errorf("k = %d: post-recovery write lost to a stale TID", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlappedRecoveryMatchesSequential: overlapping segment replay
// with the snapshot load must rebuild exactly the state the sequential
// reference loader (checkpoint.Load + BuildStore) does — the end-to-end
// check that the per-key TID filter makes the snapshot/segment
// interleaving order-independent. Unlike
// TestParallelRecoveryMatchesSequential the workload has one writer, so
// the log order is the commit order, and recovery runs twice over the
// same directory: whatever order the overlap installs in, both runs
// must agree with the reference and with each other.
func TestOverlappedRecoveryMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{
		Workers:         2,
		PhaseLength:     2 * time.Millisecond,
		RedoLog:         dir,
		MaxSegmentBytes: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.SplitHint("hot", OpAdd)
	const txns = 1500
	run := func(base int) {
		for i := 0; i < txns/2; i++ {
			key := fmt.Sprintf("k%d", (i+base)%97)
			if i%10 == 0 {
				key = "hot"
			}
			if err := db.Exec(func(tx Tx) error { return tx.Add(key, 1) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0)
	// A mid-run checkpoint gives recovery both a snapshot and a segment
	// tail, so the overlap actually has two streams to interleave.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	run(31)
	db.Close()
	want := storeState(db.Internal().Store())

	ref, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	refStore, err := ref.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Snapshot) == 0 || len(ref.Records) == 0 {
		t.Fatalf("scenario too weak — snapshot %d entries, %d records", len(ref.Snapshot), len(ref.Records))
	}

	states := map[string]map[string]string{"sequential": storeState(refStore)}
	for _, name := range []string{"overlapped", "overlapped again"} {
		over, err := Recover(dir, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		states[name] = storeState(over.Internal().Store())
		ors := over.LastRecovery()
		over.Close()
		if ors.SnapshotEntries != len(ref.Snapshot) || ors.RecordsReplayed != len(ref.Records) {
			t.Fatalf("%s recovery read %d snapshot entries and %d records, the sequential loader %d and %d",
				name, ors.SnapshotEntries, ors.RecordsReplayed, len(ref.Snapshot), len(ref.Records))
		}
	}

	for name, got := range states {
		if len(got) != len(want) {
			t.Fatalf("%s recovery: %d keys, want %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s recovery: key %q = %x, want %x", name, k, got[k], v)
			}
		}
	}
}

// TestWALFailStop kills the redo log mid-run (the next segment's path is
// occupied by a directory, so rotation's open fails terminally) and
// checks the fail-stop contract: the failure surfaces through WALErr and
// Stats.RedoLogError, and with Options.WALFailStop new transactions are
// refused instead of being acknowledged without durability.
func TestWALFailStop(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 2, RedoLog: dir, WALFailStop: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("k", 1) }); err != nil {
		t.Fatal(err)
	}
	if err := db.WALErr(); err != nil {
		t.Fatalf("healthy logger reports %v", err)
	}

	// Kill the log: the checkpoint rotation will try to open segment 2,
	// which is now a directory.
	if err := os.Mkdir(filepath.Join(dir, "wal-00000002.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded over a dead segment path")
	}
	if err := db.WALErr(); err == nil {
		t.Fatal("WALErr nil after terminal logger failure")
	}
	if db.Stats().RedoLogError == "" {
		t.Fatal("Stats.RedoLogError empty after terminal logger failure")
	}
	// Fail-stop: new transactions must be refused, not silently
	// committed in memory only.
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("k", 2) }); err == nil {
		t.Fatal("Exec acknowledged a commit after the redo log died")
	}
}

// TestWALFailStopRequiresRedoLog: the option is meaningless without a
// log and must be rejected rather than silently ignored.
func TestWALFailStopRequiresRedoLog(t *testing.T) {
	if _, err := OpenErr(Options{WALFailStop: true}); err == nil {
		t.Fatal("expected error: WALFailStop without RedoLog")
	}
}

// TestSyncCommitAckAfterFsync: with Options.SyncCommit, an Exec
// acknowledgement means the redo record has already cleared the group
// commit (write + fsync) — checked by replaying the live segment file
// underneath the running database after every commit and requiring the
// just-acknowledged key to be present. (That a synced record then
// survives power loss at any cut point is the WAL crash-injection
// suite's business; this test pins the ordering through the public
// API.)
func TestSyncCommitAckAfterFsync(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 2, RedoLog: dir, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 25
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		val := int64(i)
		if err := db.Exec(func(tx Tx) error { return tx.PutInt(key, val) }); err != nil {
			t.Fatal(err)
		}
		recs, err := wal.ReplayFile(filepath.Join(dir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range recs {
			for _, op := range r.Ops {
				if op.Key == key {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("Exec acknowledged %q under SyncCommit but its redo record is not in the log", key)
		}
	}
}

func TestSyncCommitRequiresRedoLog(t *testing.T) {
	if _, err := OpenErr(Options{SyncCommit: true}); err == nil {
		t.Fatal("expected error: SyncCommit without RedoLog")
	}
}

// TestSyncCommitCoversSliceWrites: split-phase slice writes are logged
// only when reconciliation merges them, so a SyncCommit acknowledgement
// of an Add on a split key must wait out the merge. Verified by
// replaying the live log after every acked increment (highest TID wins
// per key) and requiring the full count to be there already — whether
// the add took the joined OCC path or a per-core slice.
func TestSyncCommitCoversSliceWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{
		Workers: 2, PhaseLength: 2 * time.Millisecond,
		RedoLog: dir, SyncCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SplitHint("counter", OpAdd)
	const n = 40
	for i := 1; i <= n; i++ {
		if err := db.Exec(func(tx Tx) error { return tx.Add("counter", 1) }); err != nil {
			t.Fatal(err)
		}
		if got := replayIntKey(t, dir, "counter"); got != int64(i) {
			t.Fatalf("after %d acked adds the log replays counter=%d", i, got)
		}
	}
	if db.Stats().SplitKeys == nil && db.Stats().PhaseChanges == 0 {
		t.Log("warning: no split phases occurred; test exercised only the joined path")
	}
}

// replayIntKey replays the live log directory and returns key's value
// under the highest-TID-wins rule recovery uses.
func replayIntKey(t *testing.T, dir, key string) int64 {
	t.Helper()
	_, recs, _, err := wal.ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bestTID uint64
	var val int64
	for _, r := range recs {
		for _, op := range r.Ops {
			if op.Key != key || r.TID < bestTID {
				continue
			}
			bestTID = r.TID
			v, err := store.DecodeValue(op.Value)
			if err != nil {
				t.Fatal(err)
			}
			if val, err = v.AsInt(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return val
}

// TestSnapshotCanonical: the snapshot encoding is deterministic — the
// same entries in the same order produce byte-identical streams — and
// the state a snapshot carries does not depend on the order the walk
// emitted it in: two encodings of identical state in different orders
// decode to the same sorted entries.
func TestSnapshotCanonical(t *testing.T) {
	st := store.New()
	st.PreloadTID("b", store.IntValue(2), 2)
	st.PreloadTID("a", store.IntValue(1), 1)
	encode := func(entries []store.SnapshotEntry) []byte {
		var buf bytes.Buffer
		sw, err := store.NewSnapshotWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := sw.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	es := st.SnapshotEntries()
	if !bytes.Equal(encode(es), encode(es)) {
		t.Fatal("encodings of the same entries differ")
	}
	decodeSorted := func(raw []byte) []store.SnapshotEntry {
		got, err := store.ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		return got
	}
	x := decodeSorted(encode(es))
	y := decodeSorted(encode([]store.SnapshotEntry{es[1], es[0]}))
	for i := range x {
		if x[i].Key != y[i].Key || x[i].TID != y[i].TID ||
			!bytes.Equal(store.EncodeValue(x[i].Value), store.EncodeValue(y[i].Value)) {
			t.Fatalf("entry %d: %+v vs %+v", i, x[i], y[i])
		}
	}
}

// TestRecoverRejectsRetiredFormats: the count-prefixed DOPSNAP1
// snapshot and the doppel-manifest-v1 manifest are no longer read.
// Recover must fail on either with an error naming the problem — never
// come up as a silently empty (or partial) store.
func TestRecoverRejectsRetiredFormats(t *testing.T) {
	// A durable directory with one checkpoint and a post-checkpoint tail.
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 1, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := db.Exec(func(tx Tx) error { return tx.PutInt(key, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("tail", 1) }); err != nil {
		t.Fatal(err)
	}
	db.Close()
	man, ok, err := wal.ReadManifest(dir)
	if err != nil || !ok || man.Snapshot == "" {
		t.Fatalf("manifest %+v ok=%v err=%v", man, ok, err)
	}
	copyDir := func(t *testing.T) string {
		t.Helper()
		dst := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	mustFail := func(t *testing.T, d, want string) {
		t.Helper()
		rec, err := Recover(d, Options{Workers: 1})
		if err == nil {
			n := rec.Internal().Store().Len()
			rec.Close()
			t.Fatalf("recovered a %d-key store from a retired format", n)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Recover error %q does not mention %q", err, want)
		}
	}

	t.Run("DOPSNAP1 snapshot", func(t *testing.T) {
		d := copyDir(t)
		// The retired layout: magic, an entry count, then frames. Zero
		// entries keeps it a complete, well-formed v1 stream.
		v1 := binary.LittleEndian.AppendUint64([]byte("DOPSNAP1"), 0)
		if err := os.WriteFile(filepath.Join(d, man.Snapshot), v1, 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, d, "bad snapshot magic")
	})
	t.Run("doppel-manifest-v1", func(t *testing.T) {
		d := copyDir(t)
		body := fmt.Sprintf("doppel-manifest-v1\nseq=%d\nsnapshot=%s\n", man.SnapshotSeq, man.Snapshot)
		raw := body + fmt.Sprintf("crc=%08x\n", crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(filepath.Join(d, "MANIFEST"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, d, "unsupported manifest version")
	})
}

func TestRecoverMissingDir(t *testing.T) {
	if _, err := Recover(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestOpenErrBadLogPath(t *testing.T) {
	// A path that exists as a regular file cannot become a log directory.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenErr(Options{RedoLog: f}); err == nil {
		t.Fatal("expected error for file in place of log directory")
	}
}

func TestCheckpointRequiresRedoLog(t *testing.T) {
	if _, err := OpenErr(Options{CheckpointEvery: time.Second}); err == nil {
		t.Fatal("expected error: CheckpointEvery without RedoLog")
	}
	db := Open(Options{})
	defer db.Close()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("expected error: Checkpoint without RedoLog")
	}
}

// TestOpenErrRefusesExistingState: opening (rather than recovering) a
// directory that already holds logged state must fail — a fresh store's
// low-TID records appended behind the old generation's would be
// silently dropped by the next recovery.
func TestOpenErrRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 2, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("k", 1) }); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := OpenErr(Options{Workers: 2, RedoLog: dir}); err == nil {
		t.Fatal("OpenErr accepted a directory with existing state")
	}
	// Recover is the sanctioned path and must still work.
	rec, err := Recover(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
}
