package wal

// Reordered-write crash harness: cutFile (crash_test.go) models a disk
// that persists a clean prefix of everything written. Real disks are
// worse: bytes buffered between fsync barriers reach the platter in
// sector units and in any order, so a crash can persist a LATER sector
// of an unsynced write while dropping an EARLIER one. reorderFile
// models that — writes buffer in memory, Sync is the only durability
// barrier, and at the injected crash point an arbitrary subset of the
// pending sectors lands at its true offset (holes read back as zeros).
//
// The properties under test: group commit never lies (every record
// whose appendSync was acknowledged survives any subset persistence of
// later writes), replay never invents or reorders records (the result
// is always a prefix of what was submitted), and damage to a sealed
// segment — even damage that still decodes cleanly, like a dropped
// tail that ends exactly on a record boundary — fails recovery loudly
// via the manifest's sealed-segment metadata.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reorderSectorSize is small relative to a record (~32 bytes) so a
// single record spans several sectors and can be torn mid-record in
// non-prefix ways.
const reorderSectorSize = 8

// reorderFile is a segFile whose writes stay buffered until Sync. At
// the crashAtSync-th Sync call, instead of flushing, it persists only
// the pending sectors selected by keep — at their true offsets, leaving
// zero holes — and fails that Sync and every later operation.
type reorderFile struct {
	f           *os.File
	synced      int64 // durable bytes (all earlier syncs flushed fully)
	pending     []byte
	syncs       int
	crashAtSync int
	keep        func(sector int) bool
	crashed     bool
}

func (r *reorderFile) Write(p []byte) (int, error) {
	if r.crashed {
		return 0, errInjectedCrash
	}
	r.pending = append(r.pending, p...)
	return len(p), nil
}

func (r *reorderFile) Sync() error {
	if r.crashed {
		return errInjectedCrash
	}
	r.syncs++
	if r.syncs == r.crashAtSync {
		r.crashed = true
		for off := 0; off < len(r.pending); off += reorderSectorSize {
			end := off + reorderSectorSize
			if end > len(r.pending) {
				end = len(r.pending)
			}
			if r.keep(off / reorderSectorSize) {
				if _, err := r.f.WriteAt(r.pending[off:end], r.synced+int64(off)); err != nil {
					return err
				}
			}
		}
		_ = r.f.Sync()
		return errInjectedCrash
	}
	if _, err := r.f.WriteAt(r.pending, r.synced); err != nil {
		return err
	}
	r.synced += int64(len(r.pending))
	r.pending = nil
	return r.f.Sync()
}

func (r *reorderFile) Close() error { return r.f.Close() }

func openReorder(t *testing.T, dir string, crashAtSync int, keep func(int) bool) *Logger {
	t.Helper()
	l, err := openWith(dir, func(path string) (segFile, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		return &reorderFile{f: f, crashAtSync: crashAtSync, keep: keep}, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCrashReorderedSectorWrites drives a known workload into a crash
// whose unsynced sectors persist in assorted non-prefix subsets, and
// checks the group-commit contract at each: acknowledged records all
// survive, and replay returns a prefix of the submitted records — never
// reordered or invented data.
func TestCrashReorderedSectorWrites(t *testing.T) {
	const n = 8
	const crashAt = 6 // records 1..5 acked; record 6's sectors get scrambled
	recs := crashWorkload(n)
	scenarios := []struct {
		name string
		keep func(sector int) bool
		// exact replay count when known, -1 when only bounds apply
		want int
	}{
		// The classic reordering: a later sector reached the disk, the
		// earlier one did not. A truncation model cannot produce this.
		{"drop first sector, keep rest", func(s int) bool { return s != 0 }, crashAt - 1},
		{"keep odd sectors only", func(s int) bool { return s%2 == 1 }, crashAt - 1},
		{"drop all pending", func(s int) bool { return false }, crashAt - 1},
		// Everything reached the disk but the barrier failed: the record
		// was never acknowledged, yet replay may legitimately return it.
		{"keep all pending", func(s int) bool { return true }, crashAt},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openReorder(t, dir, crashAt, sc.keep)
			acked := 0
			for _, r := range recs {
				if err := appendSync(l, r); err != nil {
					break // crashed: no later record can be acknowledged
				}
				acked++
			}
			_ = l.Close() // post-crash close errors are expected
			if acked != crashAt-1 {
				t.Fatalf("acked %d records, expected the %d pre-crash ones", acked, crashAt-1)
			}

			got, err := ReplayFile(filepath.Join(dir, segmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) < acked {
				t.Fatalf("acked %d records but replay recovered only %d", acked, len(got))
			}
			if len(got) > len(recs) {
				t.Fatalf("replayed %d > submitted %d", len(got), len(recs))
			}
			if sc.want >= 0 && len(got) != sc.want {
				t.Fatalf("replayed %d records, want %d", len(got), sc.want)
			}
			for i, r := range got {
				want := recs[i]
				if r.TID != want.TID || len(r.Ops) != 1 ||
					r.Ops[0].Key != want.Ops[0].Key ||
					string(r.Ops[0].Value) != string(want.Ops[0].Value) {
					t.Fatalf("record %d: got %+v want %+v", i, r, want)
				}
			}
		})
	}
}

// TestReorderedSealedSegmentFailsReplay: an interior sector of a sealed
// segment goes missing (storage that lied about an fsync). The damaged
// record no longer decodes, and because the segment is sealed — not the
// newest — recovery must refuse rather than treat it as a torn tail.
func TestReorderedSealedSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range crashWorkload(5) {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil { // seals segment 1, records its metadata
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 100, Ops: []Op{{Key: "post", Value: []byte("rotate")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg1 := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg1, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Zero one sector in the middle of the sealed segment.
	if _, err := f.WriteAt(make([]byte, reorderSectorSize), 40); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, _, _, err := ReplayDir(dir); err == nil ||
		!strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("replay of a damaged sealed segment: err = %v, want sealed-segment corruption", err)
	}
}

// TestSealedSegmentRecordBoundaryDropCaughtByManifest: the nastiest
// reordering outcome — a dropped buffered write at the END of a sealed
// segment that lands exactly on a record boundary. The file still
// decodes cleanly (no torn tail, no CRC failure), so only the
// manifest's sealed-segment metadata can notice the missing records.
func TestSealedSegmentRecordBoundaryDropCaughtByManifest(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := crashWorkload(5)
	for _, r := range recs {
		if err := appendSync(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 100, Ops: []Op{{Key: "post", Value: []byte("rotate")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Drop segment 1's last record exactly.
	var keep int64
	for _, r := range recs[:len(recs)-1] {
		keep += int64(len(EncodeRecord(r)))
	}
	seg1 := filepath.Join(dir, segmentName(1))
	if err := os.Truncate(seg1, keep); err != nil {
		t.Fatal(err)
	}
	// Sanity: the damaged file itself still replays cleanly.
	if got, torn, err := ReplaySegment(seg1); err != nil || torn || len(got) != len(recs)-1 {
		t.Fatalf("boundary drop should decode cleanly: %d records, torn=%v, err=%v", len(got), torn, err)
	}

	if _, _, _, err := ReplayDir(dir); err == nil ||
		!strings.Contains(err.Error(), "manifest sealed it with") {
		t.Fatalf("ReplayDir: err = %v, want manifest metadata mismatch", err)
	}
}
