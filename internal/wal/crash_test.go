package wal

// Crash-injection harness: a segment-file wrapper that persists only the
// first N bytes ever handed to Write and fails everything after, as if
// the machine died mid-write. The table test drives a known workload
// through the logger at every possible cut point and checks the
// group-commit contract at each: what replay recovers is exactly a
// prefix of the submitted records, and every record whose appendSync was
// acknowledged survives.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var errInjectedCrash = errors.New("wal: injected crash")

// cutFile writes through to an *os.File until the shared byte budget is
// exhausted; the write that crosses the budget persists only its prefix.
// After the cut, every Write and Sync fails, like a dead disk.
type cutFile struct {
	f         *os.File
	remaining *int64
}

func (c *cutFile) Write(p []byte) (int, error) {
	if *c.remaining <= 0 {
		return 0, errInjectedCrash
	}
	n := int64(len(p))
	if n > *c.remaining {
		n = *c.remaining
	}
	*c.remaining -= n
	if _, err := c.f.Write(p[:n]); err != nil {
		return int(n), err
	}
	if n < int64(len(p)) {
		return int(n), errInjectedCrash
	}
	return int(n), nil
}

func (c *cutFile) Sync() error {
	if *c.remaining <= 0 {
		return errInjectedCrash
	}
	return c.f.Sync()
}

func (c *cutFile) Close() error { return c.f.Close() }

// crashWorkload is the known workload: record i sets key "k<i>" to
// "v<i>" under TID i+1, so any replayed prefix is fully checkable.
func crashWorkload(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			TID: uint64(i + 1),
			Ops: []Op{{Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("v%d", i))}},
		}
	}
	return recs
}

// TestCrashInjectionEveryTruncationPoint cuts the log at every byte
// offset of the workload's full encoding and verifies recovery at each.
func TestCrashInjectionEveryTruncationPoint(t *testing.T) {
	const n = 12
	recs := crashWorkload(n)
	var full []byte
	for _, r := range recs {
		full = append(full, EncodeRecord(r)...)
	}
	root := t.TempDir()

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
			remaining := cut
			l, err := openWith(dir, func(path string) (segFile, error) {
				f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				return &cutFile{f: f, remaining: &remaining}, nil
			}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, r := range recs {
				if err := appendSync(l, r); err != nil {
					break // crashed: no later record can be acknowledged
				}
				acked++
			}
			_ = l.Close() // post-crash close errors are expected

			got, err := ReplayFile(filepath.Join(dir, segmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			// Replay never invents or reorders: the result is a prefix of
			// what was submitted.
			if len(got) > len(recs) {
				t.Fatalf("replayed %d > submitted %d", len(got), len(recs))
			}
			for i, r := range got {
				want := recs[i]
				if r.TID != want.TID || len(r.Ops) != 1 ||
					r.Ops[0].Key != want.Ops[0].Key ||
					string(r.Ops[0].Value) != string(want.Ops[0].Value) {
					t.Fatalf("record %d: got %+v want %+v", i, r, want)
				}
			}
			// Group commit never lies: every acknowledged record survived
			// the crash.
			if len(got) < acked {
				t.Fatalf("acked %d records but replay recovered only %d", acked, len(got))
			}
			// A cut on a record boundary loses nothing before the cut.
			if wantFloor := recordsBelow(recs, cut); len(got) < wantFloor {
				t.Fatalf("cut=%d fully persisted %d records but replay got %d", cut, wantFloor, len(got))
			}
		})
	}
}

// recordsBelow counts how many whole records fit in the first n bytes of
// the workload's encoding — the replay floor for a cut at n.
func recordsBelow(recs []Record, n int64) int {
	var off int64
	for i, r := range recs {
		off += int64(len(EncodeRecord(r)))
		if off > n {
			return i
		}
	}
	return len(recs)
}

// TestCrashThenReopenAppends: after a mid-write crash, reopening the
// directory trims the torn tail and appends; a second crash-free run
// and replay must see both generations.
func TestCrashThenReopenAppends(t *testing.T) {
	recs := crashWorkload(6)
	var full []byte
	for _, r := range recs {
		full = append(full, EncodeRecord(r)...)
	}
	// Cut inside record 4 (0-based 3): 3 whole records survive.
	cut := int64(len(EncodeRecord(recs[0]))*3 + 5)
	dir := t.TempDir()
	remaining := cut
	l, err := openWith(dir, func(path string) (segFile, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &cutFile{f: f, remaining: &remaining}, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := appendSync(l, r); err != nil {
			break
		}
	}
	_ = l.Close()

	// "Reboot": reopen with a healthy disk and write the second
	// generation.
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 100, Ops: []Op{{Key: "post", Value: []byte("crash")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, _, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 3 survivors + 1 post-crash", len(got))
	}
	for i := 0; i < 3; i++ {
		if got[i].TID != recs[i].TID {
			t.Fatalf("survivor %d: %+v", i, got[i])
		}
	}
	if got[3].TID != 100 || got[3].Ops[0].Key != "post" {
		t.Fatalf("post-crash record: %+v", got[3])
	}
}

// TestWriteFailureIsTerminal: after any failed batch write the logger
// must refuse further appends (later batches would land behind
// unreplayable junk) and report the failure via Err.
func TestWriteFailureIsTerminal(t *testing.T) {
	dir := t.TempDir()
	remaining := int64(10) // fails inside the first record
	l, err := openWith(dir, func(path string) (segFile, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &cutFile{f: f, remaining: &remaining}, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, Record{TID: 1, Ops: []Op{{Key: "k", Value: []byte("v")}}}); err == nil {
		t.Fatal("expected write failure")
	}
	if l.Err() == nil {
		t.Fatal("Err() must report the terminal failure")
	}
	remaining = 1 << 20 // even with a healthy disk again, the logger stays down
	if err := appendSync(l, Record{TID: 2, Ops: []Op{{Key: "k", Value: []byte("w")}}}); err == nil {
		t.Fatal("append accepted after terminal failure")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
