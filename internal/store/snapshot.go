package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// snapshotMagic begins every snapshot stream: frames follow the magic
// directly, with no up-front entry count — the writer does not know it
// until the walk completes — and the stream ends with a terminator frame
// carrying the count as a cross-check. Any other magic, including the
// retired count-prefixed format's, is rejected.
var snapshotMagic = []byte("DOPSNAP2")

// snapEndMarker is the bodyLen sentinel of the terminator frame. Real
// bodies are capped at 1<<30 bytes, so the marker can never be confused
// with one.
const snapEndMarker = ^uint32(0)

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotEntry is one record captured by a checkpoint: the key, the TID
// of the transaction that produced the value, and the value itself.
// Preserving TIDs lets recovery skip redo records the snapshot already
// covers and keeps post-recovery commit TIDs monotonic per key.
type SnapshotEntry struct {
	Key   string
	TID   uint64
	Value *Value
}

// SnapshotEntries captures every record as a SnapshotEntry, in
// unspecified order. The store must be quiescent (no in-flight
// commits); values are immutable, so holding the returned pointers is
// safe while the store keeps running afterwards. Checkpoints of a live
// store use the copy-on-write capture instead (cow.go).
func (s *Store) SnapshotEntries() []SnapshotEntry {
	out := make([]SnapshotEntry, 0, s.Len())
	s.Range(func(key string, r *Record) bool {
		tid, _ := r.TIDWord()
		out = append(out, SnapshotEntry{Key: key, TID: tid, Value: r.Value()})
		return true
	})
	return out
}

// PreloadTID is Preload but also installs the record's TID. The
// sequential reference loader (checkpoint.Recovered.BuildStore) uses it
// so that replayed state carries the commit TIDs it had before the
// crash.
func (s *Store) PreloadTID(key string, v *Value, tid uint64) {
	r, _ := s.GetOrCreate(key)
	r.SetValue(v)
	r.SetTID(tid)
}

// appendSnapshotBody appends one entry's frame body to dst.
func appendSnapshotBody(dst []byte, e SnapshotEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Key)))
	dst = append(dst, e.Key...)
	dst = binary.LittleEndian.AppendUint64(dst, e.TID)
	return AppendValue(dst, e.Value)
}

// SnapshotWriter streams snapshot entries to a writer, one CRC-framed
// entry at a time, without knowing the entry count up front. It reuses
// one internal buffer across Write calls, so encoding a store of any
// size costs O(largest entry) memory — the property the streaming
// checkpoint walk depends on. Close writes the terminator frame
// (carrying the final count as a corruption cross-check) and flushes; a
// SnapshotWriter that is never Closed produces a stream readers reject
// as truncated. The format:
//
//	magic | frame* | terminator
//	frame      = u32 bodyLen | u32 crc(body) | body
//	body       = u32 keyLen | key | u64 tid | encoded value
//	terminator = u32 0xFFFFFFFF | u32 crc(count) | u64 count
type SnapshotWriter struct {
	bw  *bufio.Writer
	n   uint64
	buf []byte
}

// NewSnapshotWriter starts a snapshot stream on w.
func NewSnapshotWriter(w io.Writer) (*SnapshotWriter, error) {
	sw := &SnapshotWriter{bw: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 8)}
	if _, err := sw.bw.Write(snapshotMagic); err != nil {
		return nil, err
	}
	return sw, nil
}

// Write appends one entry frame to the stream.
func (sw *SnapshotWriter) Write(e SnapshotEntry) error {
	// The frame is assembled — header and body — in the one reused
	// buffer: a stack-local header array would escape through the
	// io.Writer interface and cost one heap allocation per entry.
	sw.buf = appendSnapshotBody(sw.buf[:8], e)
	body := sw.buf[8:]
	binary.LittleEndian.PutUint32(sw.buf[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(sw.buf[4:8], crc32.Checksum(body, snapCastagnoli))
	if _, err := sw.bw.Write(sw.buf); err != nil {
		return err
	}
	sw.n++
	return nil
}

// Count reports how many entries have been written so far.
func (sw *SnapshotWriter) Count() int { return int(sw.n) }

// Close writes the terminator frame and flushes the stream. It does not
// close the underlying writer.
func (sw *SnapshotWriter) Close() error {
	var tail [16]byte
	binary.LittleEndian.PutUint32(tail[:4], snapEndMarker)
	binary.LittleEndian.PutUint64(tail[8:], sw.n)
	binary.LittleEndian.PutUint32(tail[4:8], crc32.Checksum(tail[8:], snapCastagnoli))
	if _, err := sw.bw.Write(tail[:]); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// snapFraming drives frame iteration for both snapshot readers: it
// reads frames until the terminator and validates its count.
type snapFraming struct {
	br   *bufio.Reader
	seen uint64
}

// newSnapFraming consumes and checks the magic.
func newSnapFraming(r io.Reader, bufSize int) (*snapFraming, error) {
	br := bufio.NewReaderSize(r, bufSize)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: short snapshot magic: %w", err)
	}
	if string(magic) != string(snapshotMagic) {
		return nil, errors.New("store: bad snapshot magic")
	}
	return &snapFraming{br: br}, nil
}

// next returns the next frame's raw body and declared CRC (unverified —
// the caller checks it, possibly on another goroutine), or done == true
// at a validated end of stream. Trailing bytes after the logical end
// mean the writer and reader disagree about the format and are rejected.
func (sf *snapFraming) next() (body []byte, crc uint32, done bool, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(sf.br, hdr[:]); err != nil {
		return nil, 0, false, fmt.Errorf("store: truncated snapshot entry %d: %w", sf.seen, err)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if bodyLen == snapEndMarker {
		var cnt [8]byte
		if _, err := io.ReadFull(sf.br, cnt[:]); err != nil {
			return nil, 0, false, fmt.Errorf("store: truncated snapshot terminator: %w", err)
		}
		if crc32.Checksum(cnt[:], snapCastagnoli) != wantCRC {
			return nil, 0, false, errors.New("store: snapshot terminator checksum mismatch")
		}
		if n := binary.LittleEndian.Uint64(cnt[:]); n != sf.seen {
			return nil, 0, false, fmt.Errorf("store: snapshot terminator count %d, read %d entries", n, sf.seen)
		}
		return nil, 0, true, sf.expectEOF()
	}
	if bodyLen > 1<<30 {
		return nil, 0, false, fmt.Errorf("store: implausible snapshot body length %d", bodyLen)
	}
	body = make([]byte, bodyLen)
	if _, err := io.ReadFull(sf.br, body); err != nil {
		return nil, 0, false, fmt.Errorf("store: truncated snapshot entry %d: %w", sf.seen, err)
	}
	sf.seen++
	return body, wantCRC, false, nil
}

func (sf *snapFraming) expectEOF() error {
	if _, err := sf.br.ReadByte(); err != io.EOF {
		return errors.New("store: trailing bytes after snapshot entries")
	}
	return nil
}

// ReadSnapshot parses a snapshot stream into a slice. Unlike WAL
// replay, a snapshot is all-or-nothing: it is published atomically by
// manifest install, so any truncation or corruption is an error, never
// a silent partial result.
func ReadSnapshot(r io.Reader) ([]SnapshotEntry, error) {
	sf, err := newSnapFraming(r, 1<<16)
	if err != nil {
		return nil, err
	}
	var out []SnapshotEntry
	for {
		body, crc, done, err := sf.next()
		if err != nil {
			return nil, err
		}
		if done {
			return out, nil
		}
		if crc32.Checksum(body, snapCastagnoli) != crc {
			return nil, fmt.Errorf("store: snapshot entry %d checksum mismatch", len(out))
		}
		e, err := decodeSnapshotBody(body)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot entry %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// snapFrame is one length-delimited snapshot entry handed from the
// reader goroutine to a decoder goroutine.
type snapFrame struct {
	body []byte
	crc  uint32
}

// ReadSnapshotInto streams a snapshot directly into st with parallelism
// decoder goroutines and returns the number of entries loaded. The
// reader goroutine does only framing I/O; CRC verification, value
// decoding and store insertion run on the decoders, sharded by key hash
// so shard-lock contention between decoders stays low (safety does not
// depend on the sharding — concurrent inserts are protected by the
// store's shard mutexes).
//
// Entries install through Record.InstallRecovered — a per-key TID
// filter under the record lock — so WAL segment replay may run into the
// same store before or concurrently with the snapshot load (recovery
// overlaps the two; a follower replays its log suffix after it):
// whichever writer carries the higher TID for a key wins regardless of
// arrival order.
//
// Corruption semantics match ReadSnapshot: any truncated or corrupt
// frame fails the whole load.
func ReadSnapshotInto(r io.Reader, st *Store, parallelism int) (int, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	sf, err := newSnapFraming(r, 1<<20)
	if err != nil {
		return 0, err
	}

	var (
		failed  atomic.Bool
		errOnce sync.Once
		loadErr error
	)
	setErr := func(err error) {
		errOnce.Do(func() { loadErr = err })
		failed.Store(true)
	}
	chans := make([]chan snapFrame, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		chans[w] = make(chan snapFrame, 256)
		wg.Add(1)
		go func(ch <-chan snapFrame) {
			defer wg.Done()
			for fr := range ch {
				if failed.Load() {
					continue // drain so the reader never blocks
				}
				if crc32.Checksum(fr.body, snapCastagnoli) != fr.crc {
					setErr(errors.New("store: snapshot entry checksum mismatch"))
					continue
				}
				e, err := decodeSnapshotBody(fr.body)
				if err != nil {
					setErr(fmt.Errorf("store: snapshot entry: %w", err))
					continue
				}
				rec, _ := st.GetOrCreate(e.Key)
				rec.InstallRecovered(e.Value, e.TID)
			}
		}(chans[w])
	}
	finish := func(err error) (int, error) {
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
		if err == nil && loadErr != nil {
			err = loadErr
		}
		if err != nil {
			return 0, err
		}
		return int(sf.seen), nil
	}

	for {
		if failed.Load() {
			return finish(nil)
		}
		body, wantCRC, done, err := sf.next()
		if err != nil {
			return finish(err)
		}
		if done {
			return finish(nil)
		}
		// Route by the entry's key hash: one key always lands on one
		// decoder, and distinct keys spread out, keeping store shard-lock
		// contention low (decoder = hash % parallelism does not coincide
		// with the store's hash & 255 sharding, so exclusivity is not
		// guaranteed — nor needed; shard mutexes protect inserts). A
		// malformed frame (body too short to hold even a key length) may
		// dispatch anywhere; its decoder reports the corruption.
		w := 0
		if len(body) >= 4 {
			if kl := binary.LittleEndian.Uint32(body); uint64(kl)+4 <= uint64(len(body)) {
				w = int(fnv1aBytes(body[4:4+kl]) % uint64(parallelism))
			}
		}
		chans[w] <- snapFrame{body: body, crc: wantCRC}
	}
}

func decodeSnapshotBody(body []byte) (SnapshotEntry, error) {
	if len(body) < 4 {
		return SnapshotEntry{}, errors.New("short key length")
	}
	kl := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint32(len(body)) < kl {
		return SnapshotEntry{}, errors.New("short key")
	}
	key := string(body[:kl])
	body = body[kl:]
	if len(body) < 8 {
		return SnapshotEntry{}, errors.New("short tid")
	}
	tid := binary.LittleEndian.Uint64(body)
	v, err := DecodeValue(body[8:])
	if err != nil {
		return SnapshotEntry{}, err
	}
	return SnapshotEntry{Key: key, TID: tid, Value: v}, nil
}
