package repl

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"doppel/internal/store"
	"doppel/internal/wal"
)

// stateName is the follower state manifest inside a state directory. It
// names the newest follower snapshot and the log position (plus applied
// watermark) that snapshot is consistent with, checksummed like the
// primary's MANIFEST.
const stateName = "FOLLOWER"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// followerState is the durable restart point a follower checkpoint
// records: the snapshot file in the state directory holding the store
// materialized up to Pos, and the watermark counters to resume from.
type followerState struct {
	Snapshot string
	Pos      wal.Position
	Applied  uint64
	Ckpts    uint64
}

// writeState atomically replaces dir's follower state manifest.
func writeState(dir string, s followerState) error {
	body := fmt.Sprintf("doppel-follower-v1\nsnapshot=%s\nseq=%d\noffset=%d\napplied=%d\nckpts=%d\n",
		s.Snapshot, s.Pos.Seq, s.Pos.Offset, s.Applied, s.Ckpts)
	content := body + fmt.Sprintf("crc=%08x\n", crc32.Checksum([]byte(body), castagnoli))
	_, err := wal.WriteFileAtomic(dir, stateName, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
	return err
}

// readState loads dir's follower state. ok is false with a nil error
// when no state exists yet; a present-but-corrupt state file is an
// error so the caller falls back to a fresh bootstrap deliberately, not
// silently.
func readState(dir string) (s followerState, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		if os.IsNotExist(err) {
			return followerState{}, false, nil
		}
		return followerState{}, false, err
	}
	content := string(raw)
	i := strings.LastIndex(content, "crc=")
	if i < 0 || !strings.HasSuffix(content, "\n") {
		return followerState{}, false, fmt.Errorf("repl: malformed follower state in %s", dir)
	}
	body, crcLine := content[:i], content[i:]
	var wantCRC uint32
	if n, err := fmt.Sscanf(crcLine, "crc=%08x\n", &wantCRC); n != 1 || err != nil {
		return followerState{}, false, fmt.Errorf("repl: malformed follower state crc in %s", dir)
	}
	if crc32.Checksum([]byte(body), castagnoli) != wantCRC {
		return followerState{}, false, fmt.Errorf("repl: follower state checksum mismatch in %s", dir)
	}
	n, err := fmt.Sscanf(body, "doppel-follower-v1\nsnapshot=%s\nseq=%d\noffset=%d\napplied=%d\nckpts=%d\n",
		&s.Snapshot, &s.Pos.Seq, &s.Pos.Offset, &s.Applied, &s.Ckpts)
	if n != 5 || err != nil {
		return followerState{}, false, fmt.Errorf("repl: malformed follower state body in %s", dir)
	}
	return s, true, nil
}

// writeSnapshotFile streams the store's current entries into name in
// dir, atomically, returning the entry count.
func writeSnapshotFile(dir, name string, st *store.Store) (int, error) {
	var count int
	_, err := wal.WriteFileAtomic(dir, name, func(w io.Writer) error {
		sw, err := store.NewSnapshotWriter(w)
		if err != nil {
			return err
		}
		for _, e := range st.SnapshotEntries() {
			if err := sw.Write(e); err != nil {
				return err
			}
		}
		count = sw.Count()
		return sw.Close()
	})
	return count, err
}

// loadSnapshotFile reads a follower snapshot into st, through the same
// highest-TID-wins install as a primary-checkpoint bootstrap, so the
// suffix records replayed after it merge correctly.
func loadSnapshotFile(dir, name string, st *store.Store) (int, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return store.ReadSnapshotInto(f, st, runtime.GOMAXPROCS(0))
}
