package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
)

// encodeSnapshot streams entries through a SnapshotWriter and returns
// the raw stream.
func encodeSnapshot(tb testing.TB, entries []SnapshotEntry) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if err := sw.Write(e); err != nil {
			tb.Fatal(err)
		}
	}
	if sw.Count() != len(entries) {
		tb.Fatalf("Count() = %d, want %d", sw.Count(), len(entries))
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotWriterRoundTrip: the streamed format round-trips through
// both readers, preserving order, keys, TIDs and values.
func TestSnapshotWriterRoundTrip(t *testing.T) {
	entries := snapshotFixture()
	raw := encodeSnapshot(t, entries)

	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Key != e.Key || g.TID != e.TID ||
			!bytes.Equal(EncodeValue(g.Value), EncodeValue(e.Value)) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, g, e)
		}
	}
	for _, par := range []int{1, 4} {
		st := New()
		n, err := ReadSnapshotInto(bytes.NewReader(raw), st, par)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(entries) {
			t.Fatalf("par=%d loaded %d entries, want %d", par, n, len(entries))
		}
		for _, e := range entries {
			r := st.Get(e.Key)
			if r == nil {
				t.Fatalf("par=%d: %s missing", par, e.Key)
			}
			if tid, _ := r.TIDWord(); tid != e.TID {
				t.Fatalf("par=%d: %s TID %d, want %d", par, e.Key, tid, e.TID)
			}
			if !bytes.Equal(EncodeValue(r.Value()), EncodeValue(e.Value)) {
				t.Fatalf("par=%d: %s value mismatch", par, e.Key)
			}
		}
	}
}

// TestSnapshotV2EmptyRoundTrip: a stream with zero entries is valid.
func TestSnapshotV2EmptyRoundTrip(t *testing.T) {
	raw := encodeSnapshot(t, nil)
	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty snapshot: %d entries, err=%v", len(got), err)
	}
}

// TestSnapshotV2CorruptionDetected: the all-or-nothing policy holds
// for the terminator-specific failure modes too
// (missing terminator, wrong terminator count, trailing bytes).
func TestSnapshotV2CorruptionDetected(t *testing.T) {
	raw := encodeSnapshot(t, snapshotFixture())
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c }},
		{"bit flip", func(b []byte) []byte { c := clone(b); c[20] ^= 0x10; return c }},
		{"truncated mid-frame", func(b []byte) []byte { return b[:30] }},
		{"missing terminator", func(b []byte) []byte { return b[:len(b)-16] }},
		{"truncated terminator", func(b []byte) []byte { return b[:len(b)-7] }},
		{"trailing bytes", func(b []byte) []byte { return append(clone(b), 0xAB) }},
		{"terminator count lies", func(b []byte) []byte {
			c := clone(b)
			// The count occupies the final 8 bytes; bump it and fix its CRC
			// so only the count check can object.
			binary.LittleEndian.PutUint64(c[len(c)-8:], 99)
			binary.LittleEndian.PutUint32(c[len(c)-12:], crc32.Checksum(c[len(c)-8:], snapCastagnoli))
			return c
		}},
		{"dropped last frame keeps terminator", func(b []byte) []byte {
			// Cut one whole frame out before the terminator: every frame
			// still decodes, only the terminator count can notice.
			c := clone(b)
			term := c[len(c)-16:]
			body := c[len(snapshotMagic) : len(c)-16]
			// Walk frames to find the last one's start.
			off, last := 0, 0
			for off < len(body) {
				last = off
				bl := int(binary.LittleEndian.Uint32(body[off:]))
				off += 8 + bl
			}
			out := append([]byte{}, c[:len(snapshotMagic)]...)
			out = append(out, body[:last]...)
			return append(out, term...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(raw)
			if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
				t.Fatal("sequential reader accepted corruption")
			}
			for _, par := range []int{1, 4} {
				if _, err := ReadSnapshotInto(bytes.NewReader(mutated), New(), par); err == nil {
					t.Fatalf("parallel reader accepted corruption at parallelism %d", par)
				}
			}
		})
	}
}

// TestReadSnapshotIntoTIDFiltered: snapshot entries install through the
// per-key TID filter, so they must lose to newer state already installed
// by concurrent segment replay, win over older state, and still install
// TID-0 entries into untouched records.
func TestReadSnapshotIntoTIDFiltered(t *testing.T) {
	entries := []SnapshotEntry{
		{Key: "stale", TID: 100, Value: IntValue(1)}, // replay already wrote TID 500
		{Key: "fresh", TID: 100, Value: IntValue(2)}, // store untouched
		{Key: "old", TID: 100, Value: IntValue(3)},   // replay wrote an older... impossible in practice, but filter must be safe
		{Key: "zero", TID: 0, Value: IntValue(4)},    // preloaded-before-crash record
		{Key: "zerohit", TID: 0, Value: IntValue(5)}, // replay beat the zero entry
	}
	raw := encodeSnapshot(t, entries)
	for _, par := range []int{1, 4} {
		st := New()
		// Simulate what concurrent segment replay may already have done.
		r, _ := st.GetOrCreate("stale")
		r.InstallIfNewer(IntValue(100), 500)
		r, _ = st.GetOrCreate("old")
		r.InstallIfNewer(IntValue(300), 50)
		r, _ = st.GetOrCreate("zerohit")
		r.InstallIfNewer(IntValue(500), 700)

		if _, err := ReadSnapshotInto(bytes.NewReader(raw), st, par); err != nil {
			t.Fatal(err)
		}
		wantVal := func(key string, want int64, wantTID uint64) {
			t.Helper()
			rec := st.Get(key)
			if rec == nil {
				t.Fatalf("par=%d: %s missing", par, key)
			}
			n, err := rec.Value().AsInt()
			if err != nil || n != want {
				t.Fatalf("par=%d: %s = %d (%v), want %d", par, key, n, err, want)
			}
			if tid, _ := rec.TIDWord(); tid != wantTID {
				t.Fatalf("par=%d: %s TID %d, want %d", par, key, tid, wantTID)
			}
		}
		wantVal("stale", 100, 500) // newer replay state survives the snapshot
		wantVal("fresh", 2, 100)   // snapshot installs into an untouched store
		wantVal("old", 3, 100)     // snapshot wins over lower-TID state
		wantVal("zero", 4, 0)      // TID-0 snapshot entry installs when the record is empty
		wantVal("zerohit", 500, 700)
	}
}

// TestStreamCaptureEmitErrorDeactivates: an emit failure mid-walk must
// still run the capture protocol to completion (drain, seal,
// deactivate) so writers stop paying the copy-on-write hook and a later
// capture works normally.
func TestStreamCaptureEmitErrorDeactivates(t *testing.T) {
	st := New()
	for i := 0; i < 50; i++ {
		st.PreloadTID(fmt.Sprintf("k%d", i), IntValue(int64(i)), uint64(i+1))
	}
	boom := errors.New("writer died")
	c := st.StartCapture()
	emitted := 0
	if _, err := st.StreamCapture(c, func(SnapshotEntry) error {
		emitted++
		if emitted > 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("StreamCapture error = %v, want %v", err, boom)
	}
	// A fresh capture must still see the whole store.
	entries, _ := st.CollectCapture(st.StartCapture())
	if len(entries) != 50 {
		t.Fatalf("capture after emit failure: %d entries, want 50", len(entries))
	}
}
