package repl

// Crash-injection tests for the follower tail: the log is truncated at
// every 7th byte (and damaged by sector drops and reorders) and at each
// point the follower must apply exactly the decodable prefix, never a
// byte past the tear, and resume cleanly once the primary re-syncs the
// directory — reopening trims the torn tail and appends fresh records.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// testPoll keeps test followers snappy.
const testPoll = 100 * time.Microsecond

// replWorkload builds n records: record i sets key "k<i>" to the
// encoded integer i under TID i+1, so any applied prefix is fully
// checkable through a View.
func replWorkload(n int) []wal.Record {
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = wal.Record{
			TID: uint64(i + 1),
			Ops: []wal.Op{{
				Key:   fmt.Sprintf("k%d", i),
				Value: store.EncodeValue(store.IntValue(int64(i))),
			}},
		}
	}
	return recs
}

// encodeAll concatenates the wire encoding of recs.
func encodeAll(recs []wal.Record) []byte {
	var full []byte
	for _, r := range recs {
		full = append(full, wal.EncodeRecord(r)...)
	}
	return full
}

// waitApplied blocks until the follower's watermark reaches want.
func waitApplied(t *testing.T, f *Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.AppliedLSN() >= want {
			return
		}
		if err := f.Err(); err != nil {
			t.Fatalf("follower failed waiting for %d: %v", want, err)
		}
		time.Sleep(testPoll)
	}
	t.Fatalf("follower stuck at %d, want %d", f.AppliedLSN(), want)
}

// segPath returns the damaged test segment's path inside dir.
func segPath(dir string) string { return filepath.Join(dir, "wal-00000001.log") }

// checkPrefixThenResync drives the shared scenario: dir holds a
// (possibly damaged) segment whose decodable prefix is nPrefix records
// of replWorkload; the follower must settle at exactly nPrefix, then —
// after the primary reopens the directory (trimming the tail) and
// appends post-crash records — catch up and serve both generations.
func checkPrefixThenResync(t *testing.T, dir string, nPrefix int) {
	t.Helper()
	f, err := Open(dir, Options{Poll: testPoll})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, uint64(nPrefix))
	// The watermark must not move past the tear: give the tail loop many
	// poll intervals to (wrongly) find more, then re-check.
	time.Sleep(2 * time.Millisecond)
	if got := f.AppliedLSN(); got != uint64(nPrefix) {
		t.Fatalf("follower applied %d records, decodable prefix is %d", got, nPrefix)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("live-tail damage must read as torn (retry), not terminal: %v", err)
	}

	// Primary re-sync: reopening trims the torn bytes, then appends.
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const nPost = 3
	for i := 0; i < nPost; i++ {
		rec := wal.Record{
			TID: uint64(1000 + i),
			Ops: []wal.Op{{
				Key:   fmt.Sprintf("post%d", i),
				Value: store.EncodeValue(store.IntValue(int64(100 + i))),
			}},
		}
		appendDurable(t, l, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, uint64(nPrefix+nPost))

	// The store is exactly prefix + post-crash: surviving keys have
	// their values, torn-off keys never appeared.
	lsn, err := f.View(func(tx engine.Tx) error {
		for i := 0; i < nPrefix; i++ {
			n, err := tx.GetInt(fmt.Sprintf("k%d", i))
			if err != nil || n != int64(i) {
				return fmt.Errorf("k%d = %d, %v; want %d", i, n, err, i)
			}
		}
		for i := nPrefix; i < nPrefix+4; i++ {
			if v, err := tx.Get(fmt.Sprintf("k%d", i)); err != nil || v != nil {
				return fmt.Errorf("k%d exists (%v, %v) beyond the torn tail", i, v, err)
			}
		}
		for i := 0; i < nPost; i++ {
			n, err := tx.GetInt(fmt.Sprintf("post%d", i))
			if err != nil || n != int64(100+i) {
				return fmt.Errorf("post%d = %d, %v; want %d", i, n, err, 100+i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(nPrefix+nPost) {
		t.Fatalf("view watermark %d, want %d", lsn, nPrefix+nPost)
	}
}

// decodablePrefix counts how many whole records of recs fit in the
// first n bytes of their encoding.
func decodablePrefix(recs []wal.Record, n int) int {
	off := 0
	for i, r := range recs {
		off += len(wal.EncodeRecord(r))
		if off > n {
			return i
		}
	}
	return len(recs)
}

// TestFollowerCrashInjectionEveryCut truncates the primary's segment at
// every 7th byte (plus the exact end) and proves, at each point, the
// follower applies exactly the decodable prefix and resumes after the
// primary re-syncs.
func TestFollowerCrashInjectionEveryCut(t *testing.T) {
	recs := replWorkload(12)
	full := encodeAll(recs)
	root := t.TempDir()
	cuts := []int{}
	for cut := 0; cut <= len(full); cut += 7 {
		cuts = append(cuts, cut)
	}
	if cuts[len(cuts)-1] != len(full) {
		cuts = append(cuts, len(full))
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segPath(dir), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			checkPrefixThenResync(t, dir, decodablePrefix(recs, cut))
		})
	}
}

// TestFollowerSectorDamageResync simulates mid-file damage a lying disk
// can leave — a dropped 16-byte span (later bytes shift earlier) and a
// swapped pair of 16-byte spans — in the live segment. Both corrupt the
// frame at the damage point, so the follower treats the spot as a torn
// tail: it applies the records before it, holds, and resumes after the
// primary's reopen trims the junk.
func TestFollowerSectorDamageResync(t *testing.T) {
	recs := replWorkload(12)
	full := encodeAll(recs)
	// Damage starts inside record 5's frame.
	off := 0
	for i := 0; i < 5; i++ {
		off += len(wal.EncodeRecord(recs[i]))
	}
	damageAt := off + 3
	cases := []struct {
		name   string
		mangle func() []byte
	}{
		{"drop", func() []byte {
			out := append([]byte(nil), full[:damageAt]...)
			return append(out, full[damageAt+16:]...)
		}},
		{"swap", func() []byte {
			out := append([]byte(nil), full...)
			copy(out[damageAt:], full[damageAt+16:damageAt+32])
			copy(out[damageAt+16:], full[damageAt:damageAt+16])
			return out
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(segPath(dir), tc.mangle(), 0o644); err != nil {
				t.Fatal(err)
			}
			checkPrefixThenResync(t, dir, 5)
		})
	}
}

// TestViewIsReadOnly: every write operation inside a View fails with
// ErrReadOnly and leaves no trace; reads of all value kinds work.
func TestViewIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(t, l, wal.Record{
		TID: 1,
		Ops: []wal.Op{{Key: "n", Value: store.EncodeValue(store.IntValue(7))}},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(dir, Options{Poll: testPoll})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, 1)
	_, err = f.View(func(tx engine.Tx) error {
		if n, err := tx.GetInt("n"); err != nil || n != 7 {
			return fmt.Errorf("GetInt = %d, %v", n, err)
		}
		if b, err := tx.GetBytes("absent"); err != nil || b != nil {
			return fmt.Errorf("absent GetBytes = %q, %v", b, err)
		}
		if es, err := tx.GetTopK("absent"); err != nil || es != nil {
			return fmt.Errorf("absent GetTopK = %v, %v", es, err)
		}
		writes := map[string]error{
			"Put":        tx.Put("n", store.IntValue(1)),
			"PutInt":     tx.PutInt("n", 1),
			"PutBytes":   tx.PutBytes("n", []byte("x")),
			"Add":        tx.Add("n", 1),
			"Max":        tx.Max("n", 1),
			"Min":        tx.Min("n", 1),
			"Mult":       tx.Mult("n", 2),
			"OPut":       tx.OPut("n", store.Order{}, nil),
			"TopKInsert": tx.TopKInsert("n", 1, nil, 10),
		}
		for op, err := range writes {
			if !errors.Is(err, ErrReadOnly) {
				return fmt.Errorf("%s = %v, want ErrReadOnly", op, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The refused writes left the store untouched.
	if _, err := f.View(func(tx engine.Tx) error {
		n, err := tx.GetInt("n")
		if err != nil || n != 7 {
			return fmt.Errorf("n = %d, %v after refused writes", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerSurvivesCheckpointGC: a caught-up follower keeps tailing
// across a checkpoint install that garbage-collects the segments it
// already consumed.
func TestFollowerSurvivesCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range replWorkload(6) {
		appendDurable(t, l, rec)
	}
	f, err := Open(dir, Options{Poll: testPoll})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, 6)
	// Checkpoint: rotate, install an (empty, irrelevant to the caught-up
	// follower) snapshot, GC segment 1.
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := wal.SnapshotFileName(seq)
	if _, err := wal.WriteFileAtomic(dir, snap, func(w io.Writer) error {
		sw, err := store.NewSnapshotWriter(w)
		if err != nil {
			return err
		}
		return sw.Close()
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Install(snap, seq); err != nil {
		t.Fatal(err)
	}
	appendDurable(t, l, wal.Record{
		TID: 100,
		Ops: []wal.Op{{Key: "after", Value: store.EncodeValue(store.IntValue(1))}},
	})
	waitApplied(t, f, 7)
	if err := f.Err(); err != nil {
		t.Fatalf("follower failed across checkpoint GC: %v", err)
	}
}

// appendDurable appends rec to l and waits until it is durable.
func appendDurable(t *testing.T, l *wal.Logger, rec wal.Record) {
	t.Helper()
	lsn, err := l.Append(wal.AppendRecord(nil, rec), rec.TID)
	if err == nil {
		err = l.WaitDurable(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
}
