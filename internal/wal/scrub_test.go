package wal

// Scrub tests: a clean log audits clean, and each class of sealed-
// segment decay — a flipped byte, a torn truncation, and clean-decoding
// damage only the manifest metadata can catch — is detected while the
// logger is still live.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scrubLog builds a live logger whose directory holds sealed segments:
// n records are appended with a rotation after each quarter, so the
// directory ends with several sealed segments plus an active tail.
func scrubLog(t *testing.T, n int) (string, *Logger) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i, r := range crashWorkload(n) {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(n/4) == 0 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir, l
}

// sealedSegment returns the path and record count of the first sealed
// segment in dir.
func sealedSegment(t *testing.T, dir string) (string, int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, have %d segments", len(segs))
	}
	recs, torn, err := ReplaySegment(segs[0].Path)
	if err != nil || torn {
		t.Fatalf("sealed segment unreadable before the test tampered: torn=%v err=%v", torn, err)
	}
	return segs[0].Path, len(recs)
}

func TestScrubCleanDir(t *testing.T) {
	dir, _ := scrubLog(t, 16)
	stats, err := ScrubDir(dir)
	if err != nil {
		t.Fatalf("clean log failed scrub: %v", err)
	}
	if stats.Segments != 4 || stats.Records != 16 {
		t.Fatalf("scrubbed %d segments / %d records, want 4 / 16", stats.Segments, stats.Records)
	}
	if stats.Skipped != 1 {
		t.Fatalf("skipped %d segments, want 1 (the active tail)", stats.Skipped)
	}
}

func TestScrubEmptyAndMissingDir(t *testing.T) {
	if _, err := ScrubDir(t.TempDir()); err != nil {
		t.Fatalf("empty dir: %v", err)
	}
	if _, err := ScrubDir(filepath.Join(t.TempDir(), "never-created")); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
}

func TestScrubDetectsFlippedByte(t *testing.T) {
	dir, _ := scrubLog(t, 16)
	path, _ := sealedSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ScrubDir(dir)
	if err == nil {
		t.Fatal("scrub passed a sealed segment with a flipped byte")
	}
	if !strings.Contains(err.Error(), "torn or corrupt") {
		t.Fatalf("scrub error %q does not describe the corruption", err)
	}
}

func TestScrubDetectsTruncatedSealedSegment(t *testing.T) {
	dir, _ := scrubLog(t, 16)
	path, _ := sealedSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := ScrubDir(dir); err == nil {
		t.Fatal("scrub passed a truncated sealed segment")
	}
}

// TestScrubDetectsCleanDecodingDamage appends a well-formed extra record
// to a sealed segment: every checksum passes and nothing is torn, so
// only the manifest's sealed metadata (record count and TID range) can
// convict it — the damage class the metadata exists for.
func TestScrubDetectsCleanDecodingDamage(t *testing.T) {
	dir, _ := scrubLog(t, 16)
	path, n := sealedSegment(t, dir)
	extra := EncodeRecord(Record{TID: 9999, Ops: []Op{{Key: "ghost", Value: []byte("x")}}})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(extra); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The tampered segment still replays without error on its own.
	recs, torn, err := ReplaySegment(path)
	if err != nil || torn || len(recs) != n+1 {
		t.Fatalf("tampered segment no longer decodes cleanly: %d recs torn=%v err=%v", len(recs), torn, err)
	}
	_, err = ScrubDir(dir)
	if err == nil {
		t.Fatal("scrub passed a sealed segment that contradicts its manifest metadata")
	}
	if !strings.Contains(err.Error(), "manifest metadata") {
		t.Fatalf("scrub error %q does not blame the metadata mismatch", err)
	}
}

// TestScrubSkipsCheckpointedSegments: segments below the manifest's
// snapshot sequence are covered by the checkpoint and eligible for GC;
// damage there is not damage recovery can meet.
func TestScrubSkipsCheckpointedSegments(t *testing.T) {
	dir, l := scrubLog(t, 16)
	path, _ := sealedSegment(t, dir)
	l.Close()
	// Advance the manifest's snapshot past the first two segments by
	// hand — a checkpoint that installed but whose GC has not deleted
	// the retired files yet (GC is best-effort and can lag a crash).
	man, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.SnapshotSeq = segs[2].Seq
	live := man.Sealed[:0]
	for _, s := range man.Sealed {
		if s.Seq >= man.SnapshotSeq {
			live = append(live, s)
		}
	}
	man.Sealed = live
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScrubDir(dir); err != nil {
		t.Fatalf("scrub audited a segment the checkpoint retired: %v", err)
	}
}
