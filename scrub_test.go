package doppel

// DB-level WAL scrub tests: ScrubWAL audits a live database's sealed
// segments on demand, the ScrubEvery background loop does it unattended,
// and damage surfaces through Stats.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// corruptSealedSegment flips a byte in the middle of dir's oldest
// segment file and returns its name.
func corruptSealedSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name(), "wal-") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			continue
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return ent.Name()
	}
	t.Fatal("no non-empty segment to corrupt")
	return ""
}

// scrubDB opens a database whose log has several sealed segments.
func scrubDB(t *testing.T, opts Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	opts.Workers = 1
	opts.RedoLog = dir
	opts.MaxSegmentBytes = 256
	db, err := OpenErr(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	const records = 60
	for i := 0; i < records; i++ {
		if err := db.Exec(func(tx Tx) error {
			return tx.PutBytes("key-with-some-length", []byte("value-padding-to-force-rotation"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The commits were acknowledged from memory and may still sit in one
	// pending group-commit batch; scrubbing needs them on disk, cut into
	// sealed segments. Each Exec logged one record, so the log is
	// complete once the watermark reaches the record count.
	deadline := time.Now().Add(10 * time.Second)
	for db.DurableLSN() < records {
		if time.Now().After(deadline) {
			t.Fatalf("durable watermark stuck at %d of %d records", db.DurableLSN(), records)
		}
		time.Sleep(time.Millisecond)
	}
	return db, dir
}

func TestScrubWALCleanThenDamaged(t *testing.T) {
	db, dir := scrubDB(t, Options{})
	stats, err := db.ScrubWAL()
	if err != nil {
		t.Fatalf("clean log failed scrub: %v", err)
	}
	if stats.Segments == 0 {
		t.Fatal("scrub audited no sealed segments; MaxSegmentBytes never rotated")
	}
	seg := corruptSealedSegment(t, dir)
	if _, err := db.ScrubWAL(); err == nil {
		t.Fatalf("scrub passed after corrupting %s", seg)
	}
	s := db.Stats()
	if s.ScrubPasses < 2 {
		t.Fatalf("ScrubPasses = %d, want >= 2", s.ScrubPasses)
	}
	if s.ScrubError == "" {
		t.Fatal("Stats.ScrubError empty after a failed scrub")
	}
}

func TestScrubWALRequiresRedoLog(t *testing.T) {
	db := Open(Options{Workers: 1})
	defer db.Close()
	if _, err := db.ScrubWAL(); !errors.Is(err, ErrRequiresRedoLog) {
		t.Fatalf("ScrubWAL = %v, want ErrRequiresRedoLog", err)
	}
}

// TestScrubEveryBackgroundLoop: with ScrubEvery set, passes run
// unattended and a decayed segment surfaces in Stats without any call.
func TestScrubEveryBackgroundLoop(t *testing.T) {
	db, dir := scrubDB(t, Options{ScrubEvery: 10 * time.Millisecond})
	corruptSealedSegment(t, dir)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := db.Stats(); s.ScrubPasses > 0 && s.ScrubError != "" {
			break
		}
		if time.Now().After(deadline) {
			s := db.Stats()
			t.Fatalf("background scrub never reported: passes=%d err=%q", s.ScrubPasses, s.ScrubError)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
