package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// manifestName is the manifest file inside a log directory.
const manifestName = "MANIFEST"

// SegmentMeta records a sealed segment's identity in the manifest: the
// range of transaction IDs it holds and how many records it sealed
// with. Recovery uses the metadata two ways: as a corruption check (a
// sealed segment must replay to exactly these counts and bounds — its
// file can no longer legitimately change) and as the ordering evidence
// for parallel replay (per-key TIDs are monotone in log order, so
// segments may be applied concurrently under the highest-TID-wins
// rule; the recorded ranges make that ordering auditable).
type SegmentMeta struct {
	// Seq is the segment's sequence number.
	Seq uint64
	// MinTID and MaxTID bound the TIDs of the segment's records; both
	// are zero when the segment sealed empty.
	MinTID uint64
	MaxTID uint64
	// Records is how many redo records the segment held when sealed.
	Records int
}

// extendTID folds one record's TID into the metadata of the segment (or
// pending batch) being written.
func (m *SegmentMeta) extendTID(tid uint64) {
	if m.Records == 0 || tid < m.MinTID {
		m.MinTID = tid
	}
	if tid > m.MaxTID {
		m.MaxTID = tid
	}
	m.Records++
}

// merge folds a whole batch's metadata into m; the committer uses it to
// roll each group commit's record count and TID range into the open
// segment's metadata.
func (m *SegmentMeta) merge(b SegmentMeta) {
	if b.Records == 0 {
		return
	}
	if m.Records == 0 || b.MinTID < m.MinTID {
		m.MinTID = b.MinTID
	}
	if b.MaxTID > m.MaxTID {
		m.MaxTID = b.MaxTID
	}
	m.Records += b.Records
}

// MetaFor computes the metadata segment seq would seal with if it held
// exactly recs. Recovery uses it to check a sealed segment's file
// against the manifest.
func MetaFor(seq uint64, recs []Record) SegmentMeta {
	m := SegmentMeta{Seq: seq}
	for _, rec := range recs {
		m.extendTID(rec.TID)
	}
	return m
}

// Manifest names the durable snapshot recovery starts from, the first
// segment it must replay, and the metadata of every live sealed
// segment. A zero Manifest (no snapshot, sequence 0, no sealed
// segments) means "replay everything, ranges unknown".
type Manifest struct {
	// Snapshot is the snapshot file name (inside the log directory), or
	// "" when no checkpoint has completed yet.
	Snapshot string
	// SnapshotSeq is the first segment sequence number whose records are
	// not covered by the snapshot. Segments with a smaller sequence are
	// garbage.
	SnapshotSeq uint64
	// Sealed holds the metadata of live sealed segments in ascending
	// sequence order. A live sealed segment may be absent (the process
	// crashed between sealing it and writing the manifest); recovery
	// then simply has no metadata to check that segment against.
	Sealed []SegmentMeta
}

// SealedFor returns the manifest's metadata for segment seq, or nil
// when none was recorded.
func (m *Manifest) SealedFor(seq uint64) *SegmentMeta {
	for i := range m.Sealed {
		if m.Sealed[i].Seq == seq {
			return &m.Sealed[i]
		}
	}
	return nil
}

// manifestVersion is the first line of every manifest.
const manifestVersion = "doppel-manifest-v2"

// manifestBody renders the checksummed portion of the manifest.
func manifestBody(m Manifest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nseq=%d\nsnapshot=%s\n", manifestVersion, m.SnapshotSeq, m.Snapshot)
	for _, s := range m.Sealed {
		fmt.Fprintf(&b, "segment=%d %d %d %d\n", s.Seq, s.MinTID, s.MaxTID, s.Records)
	}
	return b.String()
}

// writeManifest atomically replaces dir's manifest via WriteFileAtomic.
func writeManifest(dir string, m Manifest) error {
	body := manifestBody(m)
	content := body + fmt.Sprintf("crc=%08x\n", crc32.Checksum([]byte(body), castagnoli))
	_, err := WriteFileAtomic(dir, manifestName, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
	return err
}

// ReadManifest loads dir's manifest. ok is false (with a zero Manifest
// and nil error) when no manifest exists, i.e. no checkpoint or sealing
// rotation has ever completed. Only the current format is accepted: a
// manifest of another version — including the retired v1 format, which
// carried no segment metadata — is an error. So is a present-but-corrupt
// manifest: segments named only by the manifest may already be
// garbage-collected, so guessing would risk silently wrong recovery.
func ReadManifest(dir string) (m Manifest, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, false, nil
		}
		return Manifest{}, false, err
	}
	m, err = parseManifest(raw)
	if err != nil {
		return Manifest{}, false, fmt.Errorf("%w in %s", err, dir)
	}
	return m, true, nil
}

// parseManifest decodes a manifest file's contents: the body that
// manifestBody renders, followed by its checksum line.
func parseManifest(raw []byte) (Manifest, error) {
	var m Manifest
	content := string(raw)
	i := strings.LastIndex(content, "crc=")
	if i < 0 || !strings.HasSuffix(content, "\n") {
		return m, errors.New("wal: malformed manifest")
	}
	body, crcLine := content[:i], content[i:]
	var wantCRC uint32
	if n, err := fmt.Sscanf(crcLine, "crc=%08x\n", &wantCRC); n != 1 || err != nil {
		return m, errors.New("wal: malformed manifest crc")
	}
	if crc32.Checksum([]byte(body), castagnoli) != wantCRC {
		return m, errors.New("wal: manifest checksum mismatch")
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 3 || lines[0] != manifestVersion {
		return m, fmt.Errorf("wal: unsupported manifest version %q", lines[0])
	}
	if n, err := fmt.Sscanf(lines[1], "seq=%d", &m.SnapshotSeq); n != 1 || err != nil {
		return m, errors.New("wal: malformed manifest seq")
	}
	m.Snapshot = strings.TrimPrefix(lines[2], "snapshot=")
	if m.Snapshot == lines[2] {
		return m, errors.New("wal: malformed manifest snapshot")
	}
	for _, line := range lines[3:] {
		var sm SegmentMeta
		if n, err := fmt.Sscanf(line, "segment=%d %d %d %d", &sm.Seq, &sm.MinTID, &sm.MaxTID, &sm.Records); n != 4 || err != nil {
			return m, errors.New("wal: malformed manifest segment line")
		}
		if k := len(m.Sealed); k > 0 && sm.Seq <= m.Sealed[k-1].Seq {
			return m, errors.New("wal: manifest segment lines out of order")
		}
		m.Sealed = append(m.Sealed, sm)
	}
	return m, nil
}
