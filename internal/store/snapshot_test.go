package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

func snapshotFixture() []SnapshotEntry {
	tk := NewTopK(3)
	tk = tk.Insert(TopKEntry{Order: 9, CoreID: 1, Data: []byte("gold")})
	tk = tk.Insert(TopKEntry{Order: 4, CoreID: 0, Data: []byte("silver")})
	return []SnapshotEntry{
		{Key: "int", TID: 0x100, Value: IntValue(-7)},
		{Key: "bytes", TID: 0x200, Value: BytesValue([]byte("hello"))},
		{Key: "tuple", TID: 0x300, Value: TupleValue(Tuple{Order: Order{A: 1, B: 2}, CoreID: 3, Data: []byte("t")})},
		{Key: "topk", TID: 0x400, Value: TopKValue(tk)},
		{Key: "absent", TID: 0x500, Value: nil},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	entries := snapshotFixture()
	got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, entries)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Key != e.Key || g.TID != e.TID {
			t.Fatalf("entry %d: got %q/%d want %q/%d", i, g.Key, g.TID, e.Key, e.TID)
		}
		if !bytes.Equal(EncodeValue(g.Value), EncodeValue(e.Value)) {
			t.Fatalf("entry %d value mismatch", i)
		}
	}
}

func TestSnapshotEntriesCaptureState(t *testing.T) {
	s := New()
	s.PreloadTID("b", IntValue(2), 0x200)
	s.PreloadTID("a", IntValue(1), 0x100)
	s.PreloadTID("c", BytesValue([]byte("x")), 0x300)
	es := s.SnapshotEntries() // order unspecified
	if len(es) != 3 {
		t.Fatalf("entries: %+v", es)
	}
	byKey := map[string]SnapshotEntry{}
	for _, e := range es {
		byKey[e.Key] = e
	}
	a, ok := byKey["a"]
	if !ok || a.TID != 0x100 {
		t.Fatalf("TID not preserved: %+v", byKey)
	}
	if n, err := a.Value.AsInt(); err != nil || n != 1 {
		t.Fatalf("value: %v %v", n, err)
	}
	// The captured entries round-trip through the codec in the order
	// they were written.
	got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, es)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if got[i].Key != es[i].Key || got[i].TID != es[i].TID {
			t.Fatalf("entry %d: got %q/%d, wrote %q/%d", i, got[i].Key, got[i].TID, es[i].Key, es[i].TID)
		}
	}
	// PreloadTID must leave the record unlocked and readable.
	r := s.Get("a")
	if _, tid, ok := r.ReadConsistent(1); !ok || tid != 0x100 {
		t.Fatalf("record state: tid=%d ok=%v", tid, ok)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	raw := encodeSnapshot(t, snapshotFixture())
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bit flip", func(b []byte) []byte { c := clone(b); c[len(c)-3] ^= 0x10; return c }},
		{"trailing bytes", func(b []byte) []byte { return append(clone(b), 0xAB) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSnapshot(bytes.NewReader(tc.mutate(raw))); err == nil {
				t.Fatal("corruption accepted")
			}
		})
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// TestReadSnapshotIntoMatchesReadSnapshot: the parallel loader must
// install exactly what the sequential reader decodes, at every
// parallelism level.
func TestReadSnapshotIntoMatchesReadSnapshot(t *testing.T) {
	var entries []SnapshotEntry
	for i := 0; i < 500; i++ {
		entries = append(entries, SnapshotEntry{
			Key: fmt.Sprintf("key-%04d", i), TID: uint64(i + 1), Value: IntValue(int64(i * 3)),
		})
	}
	raw := encodeSnapshot(t, entries)
	want, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			st := New()
			n, err := ReadSnapshotInto(bytes.NewReader(raw), st, par)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) || st.Len() != len(want) {
				t.Fatalf("loaded %d entries into %d records, want %d", n, st.Len(), len(want))
			}
			for _, e := range want {
				r := st.Get(e.Key)
				if r == nil {
					t.Fatalf("%s missing", e.Key)
				}
				tid, _ := r.TIDWord()
				if tid != e.TID {
					t.Fatalf("%s TID %d, want %d", e.Key, tid, e.TID)
				}
				if !bytes.Equal(EncodeValue(r.Value()), EncodeValue(e.Value)) {
					t.Fatalf("%s value mismatch", e.Key)
				}
			}
		})
	}
}

// TestReadSnapshotIntoCorruptionDetected: the parallel loader keeps the
// sequential reader's all-or-nothing corruption policy.
func TestReadSnapshotIntoCorruptionDetected(t *testing.T) {
	raw := encodeSnapshot(t, snapshotFixture())
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bit flip", func(b []byte) []byte { c := clone(b); c[len(c)-3] ^= 0x10; return c }},
		{"trailing bytes", func(b []byte) []byte { return append(clone(b), 0xAB) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 4} {
				if _, err := ReadSnapshotInto(bytes.NewReader(tc.mutate(raw)), New(), par); err == nil {
					t.Fatalf("corruption accepted at parallelism %d", par)
				}
			}
		})
	}
}

// TestReadSnapshotIntoShortBody: a frame whose declared body is too
// short to hold even a key length must error, not panic in the
// key-sharding dispatch (regression: index out of range). The stream
// is otherwise well formed, terminator included, so only the short body
// can object.
func TestReadSnapshotIntoShortBody(t *testing.T) {
	for _, bodyLen := range []int{0, 1, 2, 3} {
		raw := append([]byte(nil), snapshotMagic...)
		body := make([]byte, bodyLen)
		raw = binary.LittleEndian.AppendUint32(raw, uint32(bodyLen))
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(body, snapCastagnoli))
		raw = append(raw, body...)
		count := binary.LittleEndian.AppendUint64(nil, 1)
		raw = binary.LittleEndian.AppendUint32(raw, snapEndMarker)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(count, snapCastagnoli))
		raw = append(raw, count...)
		for _, par := range []int{1, 4} {
			if _, err := ReadSnapshotInto(bytes.NewReader(raw), New(), par); err == nil {
				t.Fatalf("bodyLen=%d accepted at parallelism %d", bodyLen, par)
			}
		}
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
			t.Fatalf("bodyLen=%d accepted by sequential reader", bodyLen)
		}
	}
}

// retiredSnapshotMagic begins the count-prefixed snapshot format that
// readers no longer accept.
var retiredSnapshotMagic = []byte("DOPSNAP1")

// FuzzReadSnapshot: arbitrary bytes must never panic the reader,
// anything it accepts must survive a write/read round trip through
// SnapshotWriter unchanged (no wrong data), and a stream in the retired
// count-prefixed format is always rejected.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(f, snapshotFixture()))
	// A complete, empty stream in the retired format: magic + count 0.
	f.Add(binary.LittleEndian.AppendUint64(append([]byte(nil), retiredSnapshotMagic...), 0))
	f.Add(retiredSnapshotMagic)
	f.Add(snapshotMagic)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, retiredSnapshotMagic) {
			t.Fatal("accepted a stream in the retired count-prefixed format")
		}
		back, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, entries)))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("round trip changed entry count: %d != %d", len(back), len(entries))
		}
		for i := range back {
			if back[i].Key != entries[i].Key || back[i].TID != entries[i].TID ||
				!bytes.Equal(EncodeValue(back[i].Value), EncodeValue(entries[i].Value)) {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}
