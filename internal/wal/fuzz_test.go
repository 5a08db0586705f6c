package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the segment replayer. Replay must
// never panic, and it must never return wrong data: the records it
// returns, re-encoded canonically, must reproduce a byte prefix of the
// input. (Encoding is deterministic and decodeBody rejects trailing
// bytes, so any accepted record corresponds exactly to the bytes it was
// decoded from.)
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	var valid []byte
	valid = AppendRecord(valid, Record{TID: 1, Ops: []Op{{Key: "a", Value: []byte("1")}}})
	valid = AppendRecord(valid, Record{TID: 2, Ops: []Op{{Key: "bb", Value: nil}, {Key: "c", Value: []byte("xyz")}}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-2] ^= 0xFF // corrupt body
	f.Add(flipped)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // huge length

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, _, err := replayReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory replay cannot fail: %v", err)
		}
		var re []byte
		for _, r := range recs {
			re = AppendRecord(re, r)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("replayed records re-encode to %x, not a prefix of input %x", re, data)
		}
	})
}

// withCRC appends the checksum line to a manifest body, as
// writeManifest does.
func withCRC(body string) []byte {
	return []byte(body + fmt.Sprintf("crc=%08x\n", crc32.Checksum([]byte(body), castagnoli)))
}

// FuzzParseManifest: arbitrary bytes must never panic the manifest
// parser, a manifest it accepts must survive a render/parse round trip
// unchanged, and a manifest of the retired v1 format is always
// rejected.
func FuzzParseManifest(f *testing.F) {
	f.Add(withCRC(manifestBody(Manifest{Snapshot: "snapshot-00000007.db", SnapshotSeq: 7, Sealed: []SegmentMeta{
		{Seq: 7, MinTID: 100, MaxTID: 250, Records: 12},
		{Seq: 8, MinTID: 251, MaxTID: 260, Records: 3},
	}})))
	f.Add(withCRC(manifestBody(Manifest{})))
	f.Add(withCRC("doppel-manifest-v1\nseq=3\nsnapshot=snapshot-00000003.db\n"))
	f.Add([]byte("crc=00000000\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("doppel-manifest-v1\n")) {
			t.Fatal("accepted a v1 manifest")
		}
		back, err := parseManifest(withCRC(manifestBody(m)))
		if err != nil {
			t.Fatalf("re-parse of %+v failed: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the manifest: %+v became %+v", m, back)
		}
	})
}
