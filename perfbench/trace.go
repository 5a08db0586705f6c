package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Span names.
const (
	spanRoot uint8 = 1 // loadgen.txn: submit or due time to acknowledgement
	spanBody uint8 = 2 // core.body: one execution of the transaction body
)

// tagCross marks a root span whose inputs span both shards; the low bit
// is the opKind (0 write, 1 read).
const tagCross uint8 = 2

// span is one traced interval. Spans of one request share id; a body
// span's parent is the root span with the same id.
type span struct {
	start, end int64 // ns since the benchmark's epoch
	id         uint32
	name       uint8
	tag        uint8
}

// spanFileMagic heads a span file; records follow as little-endian
// start int64, end int64, id uint32, name uint8, tag uint8, 2 bytes pad.
const spanFileMagic = "PBSPANS1"

// tracer keeps spans in memory preallocated before the traced window;
// they are written out once, after the run.
type tracer struct {
	buf     atomic.Pointer[[]span] // published by reserve before the first traced request
	n       atomic.Int64
	dropped atomic.Int64
}

// reserve preallocates room for n spans.
func (t *tracer) reserve(n int) {
	b := make([]span, n)
	t.buf.Store(&b)
}

// add records sp; it is called from the generator and from worker
// goroutines at once, each writing its own element.
func (t *tracer) add(sp span) {
	b := *t.buf.Load()
	i := t.n.Add(1) - 1
	if i >= int64(len(b)) {
		t.dropped.Add(1)
		return
	}
	b[i] = sp
}

func (t *tracer) recorded() []span {
	b := *t.buf.Load()
	return b[:min(t.n.Load(), int64(len(b)))]
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	spans := t.recorded()
	var hdr [16]byte
	copy(hdr[:8], spanFileMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(spans)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [24]byte
	for _, sp := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(sp.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(sp.end))
		binary.LittleEndian.PutUint32(rec[16:], sp.id)
		rec[20], rec[21] = sp.name, sp.tag
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanStats is what the per-layer metrics need from the spans.
type spanStats struct {
	roots, bodies int
	body          []int64 // body durations
	queue, ack    []int64 // root start to first body start; last body end to root end
	single, cross []int64 // write root durations by shard span
}

// analyze joins body spans to their roots by id. A root without a body
// span (it cannot happen for an acknowledged transaction) is skipped.
func analyze(spans []span) spanStats {
	var maxID uint32
	for _, sp := range spans {
		maxID = max(maxID, sp.id)
	}
	first := make([]int64, maxID+1)
	last := make([]int64, maxID+1)
	var st spanStats
	for _, sp := range spans {
		if sp.name != spanBody {
			continue
		}
		st.bodies++
		st.body = append(st.body, sp.end-sp.start)
		if first[sp.id] == 0 || sp.start < first[sp.id] {
			first[sp.id] = sp.start
		}
		last[sp.id] = max(last[sp.id], sp.end)
	}
	for _, sp := range spans {
		if sp.name != spanRoot {
			continue
		}
		st.roots++
		if opKind(sp.tag&1) == opWrite {
			if sp.tag&tagCross != 0 {
				st.cross = append(st.cross, sp.end-sp.start)
			} else {
				st.single = append(st.single, sp.end-sp.start)
			}
		}
		if first[sp.id] == 0 {
			continue
		}
		st.queue = append(st.queue, first[sp.id]-sp.start)
		st.ack = append(st.ack, sp.end-last[sp.id])
	}
	return st
}
