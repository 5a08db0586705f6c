package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string) *Logger {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func replayAllT(t *testing.T, dir string) []Record {
	t.Helper()
	_, recs, _, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	recs := []Record{
		{TID: 1, Ops: []Op{{Key: "a", Value: []byte("1")}}},
		{TID: 2, Ops: []Op{{Key: "b", Value: []byte("22")}, {Key: "c", Value: nil}}},
		{TID: 3, Ops: nil},
	}
	for _, r := range recs {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAllT(t, dir)
	if len(got) != 3 {
		t.Fatalf("replayed %d records", len(got))
	}
	if got[1].TID != 2 || len(got[1].Ops) != 2 || got[1].Ops[0].Key != "b" ||
		string(got[1].Ops[0].Value) != "22" {
		t.Fatalf("record 1: %+v", got[1])
	}
	if len(got[2].Ops) != 0 {
		t.Fatalf("record 2: %+v", got[2])
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{TID: uint64(w*perWriter + i + 1),
					Ops: []Op{{Key: "k", Value: []byte{byte(w)}}}}
				if err := appendSync(l, rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAllT(t, dir)
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d, want %d", len(got), writers*perWriter)
	}
	seen := map[uint64]bool{}
	for _, r := range got {
		if seen[r.TID] {
			t.Fatalf("duplicate TID %d", r.TID)
		}
		seen[r.TID] = true
	}
}

func TestAppendAfterClose(t *testing.T) {
	l := openT(t, t.TempDir())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 1}); err == nil {
		t.Fatal("expected error after close")
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestReopenAppends is the regression test for the seed's truncate-on-
// open bug: opening an existing log must append, never discard.
func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "a", Value: []byte("1")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openT(t, dir)
	if got := l.SegmentSeq(); got != 1 {
		t.Fatalf("reopen segment seq %d, want 1", got)
	}
	if err := appendSync(l, Record{TID: 2, Ops: []Op{{Key: "b", Value: []byte("2")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAllT(t, dir)
	if len(got) != 2 || got[0].TID != 1 || got[1].TID != 2 {
		t.Fatalf("after reopen: %+v", got)
	}
}

func tornTail(t *testing.T, dir string, cut int64) string {
	t.Helper()
	seg := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for tid := uint64(1); tid <= 5; tid++ {
		if err := appendSync(l, Record{TID: tid, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record to simulate a crash during a write.
	tornTail(t, dir, 3)
	got := replayAllT(t, dir)
	if len(got) != 4 {
		t.Fatalf("torn tail: replayed %d, want 4", len(got))
	}
}

// TestReopenAfterTornTail: a crash mid-write leaves a torn tail; reopen
// must trim it so records appended after recovery are replayable.
func TestReopenAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for tid := uint64(1); tid <= 5; tid++ {
		if err := appendSync(l, Record{TID: tid, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tornTail(t, dir, 3)
	l = openT(t, dir)
	if err := appendSync(l, Record{TID: 6, Ops: []Op{{Key: "k", Value: []byte("w")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAllT(t, dir)
	if len(got) != 5 {
		t.Fatalf("replayed %d, want 5 (4 survivors + 1 new)", len(got))
	}
	if got[4].TID != 6 || string(got[4].Ops[0].Value) != "w" {
		t.Fatalf("post-reopen record: %+v", got[4])
	}
}

func TestReplayCorruptBody(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for tid := uint64(1); tid <= 3; tid++ {
		if err := appendSync(l, Record{TID: tid, Ops: []Op{{Key: "key", Value: []byte("value")}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last record's body.
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAllT(t, dir)
	if len(got) != 2 {
		t.Fatalf("corrupt body: replayed %d, want 2", len(got))
	}
}

func TestReplayMissingDir(t *testing.T) {
	if _, _, _, err := ReplayDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ReplayFile(filepath.Join(t.TempDir(), "nope.log")); err == nil {
		t.Fatal("expected error")
	}
}

func TestRotateSplitsSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "a", Value: []byte("1")}}}); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || l.SegmentSeq() != 2 {
		t.Fatalf("rotate seq %d (logger %d), want 2", seq, l.SegmentSeq())
	}
	if err := appendSync(l, Record{TID: 2, Ops: []Op{{Key: "b", Value: []byte("2")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, segs, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Records != 1 || segs[1].Records != 1 {
		t.Fatalf("segments: %+v", segs)
	}
	if len(recs) != 2 || recs[0].TID != 1 || recs[1].TID != 2 {
		t.Fatalf("records: %+v", recs)
	}
}

// TestInstallGarbageCollects checks manifest install plus GC: after a
// snapshot covering segment 1 is installed, replay starts at segment 2
// and the subsumed files are gone.
func TestInstallGarbageCollects(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "a", Value: []byte("old")}}}); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// A stand-in snapshot file (contents are the checkpointer's business)
	// and a stale one that Install must collect.
	snap := "snapshot-00000002.db"
	if err := os.WriteFile(filepath.Join(dir, snap), []byte("snap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000001.db"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Install(snap, seq); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 2, Ops: []Op{{Key: "b", Value: []byte("new")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not collected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-00000001.db")); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot not collected: %v", err)
	}
	man, recs, segs, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Snapshot != snap || man.SnapshotSeq != seq {
		t.Fatalf("manifest: %+v", man)
	}
	if len(segs) != 1 || segs[0].Seq != 2 {
		t.Fatalf("live segments: %+v", segs)
	}
	if len(recs) != 1 || recs[0].TID != 2 {
		t.Fatalf("live records: %+v", recs)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(dir); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	want := Manifest{Snapshot: "snapshot-00000007.db", SnapshotSeq: 7, Sealed: []SegmentMeta{
		{Seq: 7, MinTID: 100, MaxTID: 250, Records: 12},
		{Seq: 8, MinTID: 251, MaxTID: 260, Records: 3},
	}}
	if err := writeManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v ok=%v err=%v", got, ok, err)
	}
}

// TestManifestV1Rejected: the retired segment-metadata-less v1 format
// is no longer read. A v1 manifest with a valid checksum must fail
// loudly, naming the unsupported version, rather than load without
// sealed-segment ranges.
func TestManifestV1Rejected(t *testing.T) {
	dir := t.TempDir()
	raw := withCRC("doppel-manifest-v1\nseq=3\nsnapshot=snapshot-00000003.db\n")
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if err == nil || ok {
		t.Fatalf("v1 manifest accepted as %+v (ok=%v)", got, ok)
	}
	if !strings.Contains(err.Error(), "doppel-manifest-v1") {
		t.Fatalf("error %q does not name the unsupported version", err)
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifest(dir, Manifest{Snapshot: "s.db", SnapshotSeq: 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadManifest(dir); err == nil {
		t.Fatal("expected checksum error")
	}
}

// TestSegmentGapDetected: a missing middle segment means acknowledged
// commits are unrecoverable; replay must say so, not skip silently.
func TestSegmentGapDetected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReplayDir(dir); err == nil {
		t.Fatal("expected segment-gap error")
	}
}

// TestCorruptSealedSegmentDetected: corruption before the newest segment
// cannot be a crash artifact; replay must fail loudly.
func TestCorruptSealedSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 2, Ops: []Op{{Key: "k", Value: []byte("w")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(seg1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReplayDir(dir); err == nil {
		t.Fatal("expected sealed-segment corruption error")
	}
}

func TestSnapshotNameRecognizedByGC(t *testing.T) {
	if !isSnapshotName(SnapshotFileName(7)) {
		t.Fatal("GC does not recognize the checkpointer's snapshot file name")
	}
	if isSnapshotName("wal-00000001.log") || isSnapshotName("MANIFEST") {
		t.Fatal("GC misclassifies non-snapshot files")
	}
}

// TestFailReleasesQueuedRotate is the regression test for the
// stranded-rotate deadlock: a Rotate that queues while the committer is
// mid-write must be released with the terminal error when the write
// fails, because its caller is a checkpoint barrier holding every
// worker quiesced — stranding it would deadlock the whole database.
func TestFailReleasesQueuedRotate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	// Queue a rotate request directly, simulating one that registered
	// after the committer captured l.rot for its current iteration.
	req := &rotateReq{done: make(chan struct{})}
	l.mu.Lock()
	l.rot = req
	l.mu.Unlock()
	l.fail(errors.New("injected write failure"))
	select {
	case <-req.done:
		if req.err == nil {
			t.Fatal("queued rotate released without the terminal error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued rotate stranded after terminal failure")
	}
	if l.Err() == nil {
		t.Fatal("terminal failure not recorded")
	}
	_ = l.Close()
}

// TestSizeBasedRotation: with MaxSegmentBytes set, segments seal on
// byte thresholds with no Rotate calls, the manifest records each
// sealed segment's TID range, and replay still sees every record in
// order.
func TestSizeBasedRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenOptions(dir, Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for tid := uint64(1); tid <= n; tid++ {
		if err := appendSync(l, Record{TID: tid, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the committer to finish any rotation triggered by the last
	// batch: Close drains the committer loop.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, recs, segs, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.TID != uint64(i+1) {
			t.Fatalf("record %d has TID %d: order lost across size rotations", i, r.TID)
		}
	}
	// Every appendSync is its own batch, and a 1-byte budget seals the
	// segment after each batch, so there must be n sealed segments plus
	// the open one.
	if len(segs) != n+1 {
		t.Fatalf("got %d segments, want %d", len(segs), n+1)
	}
	if len(man.Sealed) != n {
		t.Fatalf("manifest records %d sealed segments, want %d: %+v", len(man.Sealed), n, man.Sealed)
	}
	for i, sm := range man.Sealed {
		want := SegmentMeta{Seq: uint64(i + 1), MinTID: uint64(i + 1), MaxTID: uint64(i + 1), Records: 1}
		if sm != want {
			t.Fatalf("sealed[%d] = %+v, want %+v", i, sm, want)
		}
	}
}

// TestSizeRotationMetaSurvivesReopen: the open segment's TID-range
// metadata is rebuilt from the file on reopen, so a seal after a
// crash-restart still publishes a correct range.
func TestSizeRotationMetaSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 7, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openT(t, dir)
	if err := appendSync(l, Record{TID: 9, Ops: []Op{{Key: "k", Value: []byte("w")}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sm := man.SealedFor(1)
	if sm == nil || sm.MinTID != 7 || sm.MaxTID != 9 || sm.Records != 2 {
		t.Fatalf("sealed segment 1 metadata %+v, want range [7,9] with 2 records", sm)
	}
}

// TestReopenRetractsSealedMetaOfAppendTarget is the regression test
// for the crash window between sealing a segment and opening its
// successor: the manifest records the newest segment as sealed, but
// reopen must append to that segment. Without durably retracting the
// metadata, post-reopen commits would contradict it and the next
// recovery would reject the log as corrupt.
func TestReopenRetractsSealedMetaOfAppendTarget(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "a", Value: []byte("1")}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: segment 2 was never durably created, so the
	// sealed segment 1 is the newest file on disk.
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir)
	if man, _, err := ReadManifest(dir); err != nil || man.SealedFor(1) != nil {
		t.Fatalf("reopen left sealed metadata for the append target: %+v (err %v)", man.Sealed, err)
	}
	if err := appendSync(l, Record{TID: 2, Ops: []Op{{Key: "b", Value: []byte("2")}}}); err != nil {
		t.Fatal(err)
	}
	// Crash again without any further manifest write: recovery must not
	// reject segment 1 for having grown past retracted metadata.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].TID != 1 || recs[1].TID != 2 {
		t.Fatalf("records after reopen-append: %+v", recs)
	}

	// And when the reopened segment seals again, its manifest line must
	// not duplicate (ReadManifest rejects out-of-order lines).
	l = openT(t, dir)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sm := man.SealedFor(1)
	if sm == nil || sm.Records != 2 || sm.MinTID != 1 || sm.MaxTID != 2 {
		t.Fatalf("re-sealed segment 1 metadata: %+v", man.Sealed)
	}
}

// TestSealedMetaBounded: without checkpoints to prune it, the sealed
// metadata list must still stay bounded so per-seal manifest rewrites
// do not grow without limit.
func TestSealedMetaBounded(t *testing.T) {
	var s []SegmentMeta
	for seq := uint64(1); seq <= maxSealedMeta+100; seq++ {
		s = trimSealed(append(s, SegmentMeta{Seq: seq}))
	}
	if len(s) != maxSealedMeta {
		t.Fatalf("sealed metadata grew to %d entries, cap is %d", len(s), maxSealedMeta)
	}
	if s[0].Seq != 101 || s[len(s)-1].Seq != maxSealedMeta+100 {
		t.Fatalf("trim kept the wrong window: [%d, %d]", s[0].Seq, s[len(s)-1].Seq)
	}
}

// TestInstallPrunesSealedMeta: installing a snapshot drops manifest
// metadata for the segments the snapshot subsumed.
func TestInstallPrunesSealedMeta(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "a", Value: []byte("1")}}}); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := SnapshotFileName(seq)
	if err := os.WriteFile(filepath.Join(dir, snap), []byte("snap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Install(snap, seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Sealed) != 0 {
		t.Fatalf("subsumed segment metadata not pruned: %+v", man.Sealed)
	}
}

// TestDoubleOpenRefused: two loggers on one directory would interleave
// appends and GC each other's segments; the second Open must fail.
func TestDoubleOpenRefused(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	defer l.Close()
	if l2, err := Open(dir); err == nil {
		l2.Close()
		t.Fatal("second Open of a locked directory succeeded")
	}
	// After Close the directory is free again.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openT(t, dir)
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMissingFirstLiveSegmentDetected: if the segment the manifest
// points at is gone, acknowledged commits are unrecoverable and replay
// must fail, not silently skip to the next segment.
func TestMissingFirstLiveSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if err := appendSync(l, Record{TID: 1}); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := SnapshotFileName(seq)
	if err := os.WriteFile(filepath.Join(dir, snap), []byte("snap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Install(snap, seq); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil { // segment seq+1 now exists
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(seq))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReplayDir(dir); err == nil {
		t.Fatal("expected error for missing manifest segment")
	}
}

// TestSizeRotationCutsBatches: MaxSegmentBytes is a real bound, not a
// check between group commits. Records appended back to back land in
// a few large batches; the committer must cut each batch at record
// boundaries so no segment passes the budget — except a segment
// holding a single record larger than the budget — and every sealed
// segment's metadata must describe exactly the records in its file.
func TestSizeRotationCutsBatches(t *testing.T) {
	const budget = 200
	dir := t.TempDir()
	l, err := OpenOptions(dir, Options{MaxSegmentBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	var last uint64
	for tid := uint64(1); tid <= n; tid++ {
		val := []byte("v")
		if tid == n/2 {
			val = make([]byte, 2*budget) // one record over the budget
		}
		if last, err = l.Append(EncodeRecord(Record{TID: tid, Ops: []Op{{Key: "k", Value: val}}}), tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, recs, segs, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.TID != uint64(i+1) {
			t.Fatalf("record %d has TID %d: order lost across cuts", i, r.TID)
		}
	}
	if len(segs) < 10 {
		t.Fatalf("only %d segments for %d records under a %d-byte budget", len(segs), n, budget)
	}
	for _, sg := range segs {
		fi, err := os.Stat(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		segRecs, _, err := ReplaySegment(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > budget && len(segRecs) != 1 {
			t.Fatalf("segment %d holds %d bytes in %d records, budget %d", sg.Seq, fi.Size(), len(segRecs), budget)
		}
		if sm := man.SealedFor(sg.Seq); sm != nil && *sm != MetaFor(sg.Seq, segRecs) {
			t.Fatalf("segment %d sealed as %+v, holds %+v", sg.Seq, *sm, MetaFor(sg.Seq, segRecs))
		}
	}
}

// appendSync encodes rec, appends it and waits until it is durable.
func appendSync(l *Logger, rec Record) error {
	lsn, err := l.Append(AppendRecord(nil, rec), rec.TID)
	if err != nil {
		return err
	}
	return l.WaitDurable(lsn)
}
