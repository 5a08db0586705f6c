package wal

// Cursor tests: live tailing, sealed-segment handoff with manifest
// cross-checks, corruption detection, GC overruns, and the O(1)-per-poll
// regression guard (the cursor must never rescan sealed segments or
// re-read the manifest while idling on an unchanged segment).

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect returns a Next apply callback appending into recs.
func collect(recs *[]Record) func(Record) error {
	return func(r Record) error {
		*recs = append(*recs, r)
		return nil
	}
}

// TestCursorTailsLiveLog: records become visible to the cursor as each
// group commit lands, in order, and the cursor's position tracks the
// logger's durable position exactly.
func TestCursorTailsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cur, man, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if man.Snapshot != "" {
		t.Fatalf("unexpected snapshot %q in fresh dir", man.Snapshot)
	}
	var got []Record
	recs := crashWorkload(8)
	for i, r := range recs {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
		n, err := cur.Next(collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 || len(got) != i+1 {
			t.Fatalf("after append %d: applied %d, total %d", i, n, len(got))
		}
		if got[i].TID != r.TID || got[i].Ops[0].Key != r.Ops[0].Key {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], r)
		}
		if cur.Position() != l.DurablePosition() {
			t.Fatalf("cursor at %s, durable at %s", cur.Position(), l.DurablePosition())
		}
	}
}

// TestCursorCrossesRotation: a single Next drains the sealed segment,
// passes its manifest metadata check, and continues into the successor.
func TestCursorCrossesRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := crashWorkload(5)
	for _, r := range recs[:3] {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[3:] {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []Record
	if _, err := cur.Next(collect(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("applied %d records across rotation, want %d", len(got), len(recs))
	}
	if p := cur.Position(); p.Seq != 2 {
		t.Fatalf("cursor position %s, want segment 2", p)
	}
	if p := cur.Position(); p != l.DurablePosition() {
		t.Fatalf("cursor at %s, durable at %s", p, l.DurablePosition())
	}
}

// TestCursorSealedSegmentCorruption: a flipped byte in a sealed segment
// (its successor exists) must fail the cursor loudly, exactly as
// ReplayDir refuses corrupt sealed segments — it is not a torn tail.
func TestCursorSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range crashWorkload(3) {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's frame.
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := len(EncodeRecord(crashWorkload(3)[0]))
	raw[first+10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cur, _, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []Record
	_, err = cur.Next(collect(&got))
	if err == nil || !strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("err = %v, want sealed-segment corruption", err)
	}
	if len(got) != 1 {
		t.Fatalf("applied %d records before detecting corruption, want 1", len(got))
	}
}

// TestCursorSealedMetadataMismatch: a sealed segment that lost a whole
// trailing record still decodes cleanly, but the manifest's recorded
// record count catches it at the handoff.
func TestCursorSealedMetadataMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := crashWorkload(3)
	for _, r := range recs {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop the sealed segment's last record on its exact boundary.
	keep := int64(len(EncodeRecord(recs[0])) + len(EncodeRecord(recs[1])))
	if err := os.Truncate(filepath.Join(dir, segmentName(1)), keep); err != nil {
		t.Fatal(err)
	}
	cur, _, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []Record
	_, err = cur.Next(collect(&got))
	if err == nil || !strings.Contains(err.Error(), "manifest sealed it") {
		t.Fatalf("err = %v, want manifest metadata mismatch", err)
	}
}

// TestCursorO1IdlePolls is the ReplayDir-rescan regression test: once
// caught up, polling an unchanged log costs no manifest reads and no
// segment opens, no matter how many sealed segments exist — and the
// cursor keeps working even after already-consumed segments are deleted
// out from under it (which would break any rescan-from-scratch reader).
func TestCursorO1IdlePolls(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := crashWorkload(9)
	for i, r := range recs {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 && i < 8 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cur, _, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []Record
	if _, err := cur.Next(collect(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("caught up to %d records, want %d", len(got), len(recs))
	}
	base := cur.Stats()
	if base.SegmentOpens != 3 {
		t.Fatalf("opened %d segments for 3 segments of log", base.SegmentOpens)
	}
	for i := 0; i < 100; i++ {
		if n, err := cur.Next(collect(&got)); err != nil || n != 0 {
			t.Fatalf("idle poll %d: n=%d err=%v", i, n, err)
		}
	}
	idle := cur.Stats()
	if idle.ManifestReads != base.ManifestReads || idle.SegmentOpens != base.SegmentOpens {
		t.Fatalf("idle polling did I/O: manifest %d→%d, opens %d→%d",
			base.ManifestReads, idle.ManifestReads, base.SegmentOpens, idle.SegmentOpens)
	}
	if idle.Polls != base.Polls+100 {
		t.Fatalf("polls %d → %d, want +100", base.Polls, idle.Polls)
	}
	// Delete the segments the cursor has already consumed; incremental
	// tailing must not care, while a rescanning reader chokes on the gap
	// the first deletion leaves.
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReplayDir(dir); err == nil {
		t.Fatal("ReplayDir should fail on the segment gap; the cursor must not")
	}
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	extra := Record{TID: 100, Ops: []Op{{Key: "late", Value: []byte("x")}}}
	if err := appendSync(l, extra); err != nil {
		t.Fatal(err)
	}
	n, err := cur.Next(collect(&got))
	if err != nil || n != 1 {
		t.Fatalf("post-delete poll: n=%d err=%v", n, err)
	}
	if got[len(got)-1].TID != 100 {
		t.Fatalf("late record not applied: %+v", got[len(got)-1])
	}
}

// TestCursorWaitsForFirstSegment: a cursor over a directory the primary
// has not populated (or created) yet idles without error and picks up
// the first record when it arrives.
func TestCursorWaitsForFirstSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet")
	cur, _, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []Record
	for i := 0; i < 3; i++ {
		if n, err := cur.Next(collect(&got)); err != nil || n != 0 {
			t.Fatalf("poll before primary: n=%d err=%v", n, err)
		}
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	if n, err := cur.Next(collect(&got)); err != nil || n != 1 {
		t.Fatalf("first poll after primary: n=%d err=%v", n, err)
	}
}

// TestCursorGCOverrun: when a checkpoint garbage-collects the segment
// the cursor needs next, the cursor must fail terminally with
// ErrTailGCed — not wait forever for a file that will never return.
func TestCursorGCOverrun(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	cur, _, err := OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// A checkpoint rotates and installs its snapshot before the cursor's
	// first poll ever opens segment 1; GC then deletes it.
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Install(SnapshotFileName(2), 2); err != nil {
		t.Fatal(err)
	}
	var got []Record
	_, err = cur.Next(collect(&got))
	if !errors.Is(err, ErrTailGCed) {
		t.Fatalf("err = %v, want ErrTailGCed", err)
	}
}

// TestDurablePosition: the durable position starts at the log's end on
// open, advances with each synced batch, and steps to the successor's
// origin at rotation.
func TestDurablePosition(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p := l.DurablePosition(); p != (Position{Seq: 1, Offset: 0}) {
		t.Fatalf("fresh logger at %s", p)
	}
	rec := Record{TID: 1, Ops: []Op{{Key: "k", Value: []byte("v")}}}
	if err := appendSync(l, rec); err != nil {
		t.Fatal(err)
	}
	want := Position{Seq: 1, Offset: int64(len(EncodeRecord(rec)))}
	if p := l.DurablePosition(); p != want {
		t.Fatalf("after append at %s, want %s", p, want)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if p := l.DurablePosition(); p != (Position{Seq: 2, Offset: 0}) {
		t.Fatalf("after rotate at %s", p)
	}
	if (Position{Seq: 1, Offset: 5}).Less(Position{Seq: 1, Offset: 5}) {
		t.Fatal("Less must be strict")
	}
	if !(Position{}).Less(Position{Seq: 1}) || !(Position{Seq: 1, Offset: 9}).Less(Position{Seq: 2}) {
		t.Fatal("Less ordering broken")
	}
	// Reopening resumes the durable position from the on-disk state.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p := l.DurablePosition(); p != (Position{Seq: 2, Offset: 0}) {
		t.Fatalf("reopened logger at %s", p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
