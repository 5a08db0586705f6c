package server

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"
)

// maxPendingBytes bounds the bytes queued behind one connection's
// flusher. A peer that stops draining its socket hits this cap and is
// dropped; until then sends never block, which is what lets database
// workers complete requests without ever stalling on the network.
const maxPendingBytes = 32 << 20

// maxRetainedBatch bounds the batch buffer the flusher keeps for reuse:
// one grown larger by a burst is left to the GC after its write, so an
// idle connection does not pin the burst's memory.
const maxRetainedBatch = 1 << 20

// frameWriter batches a connection's outgoing frames into one shared
// byte buffer. Senders encode each frame straight into it under its lock
// (begin, append the payload, end); a single flusher goroutine swaps the
// filled buffer with its spare and writes the whole batch in one Write,
// so a burst of messages costs one syscall and no allocation. Both ends
// of a connection use one — the server for out-of-order responses, the
// client for pipelined requests.
//
// After the underlying writer errors, the flusher keeps discarding
// batches without writing, so late senders stay cheap no-ops.
type frameWriter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte // encoded frames awaiting the flusher
	start   int    // offset of the frame begin opened
	writing int    // bytes of the batch the flusher is writing now
	closed  bool

	done chan struct{}
	cfg  frameWriterConfig
}

// frameWriterConfig is the optional wiring around a frameWriter's loop.
type frameWriterConfig struct {
	flushEvery time.Duration
	// conn and writeTimeout together arm a write deadline before each
	// batch, so a peer that stops draining its socket breaks the writer
	// instead of wedging the flusher goroutine forever.
	conn         net.Conn
	writeTimeout time.Duration
	// onBroken runs once, from the flusher goroutine, when the writer
	// first fails. Servers use it to close the connection so the read
	// loop notices the peer is effectively gone.
	onBroken func()
}

func startFrameWriter(w io.Writer, cfg frameWriterConfig) *frameWriter {
	fw := &frameWriter{done: make(chan struct{}), cfg: cfg}
	fw.cond = sync.NewCond(&fw.mu)
	go fw.loop(w)
	return fw
}

// begin locks the writer and opens a frame: it returns the batch buffer
// with the frame's length header reserved. The caller appends exactly
// one payload and passes the result to end (or calls cancel), holding
// no other writer call in between. False means the writer is closed or
// over its byte cap (the peer has stopped draining the connection); the
// caller should drop the connection.
//
//doppel:hotpath
func (fw *frameWriter) begin() ([]byte, bool) {
	fw.mu.Lock()
	if fw.closed || len(fw.buf)+fw.writing > maxPendingBytes {
		fw.mu.Unlock()
		return nil, false
	}
	fw.start = len(fw.buf)
	return append(fw.buf, 0, 0, 0, 0), true
}

// end seals the frame begin opened, whose payload the caller appended to
// buf, and wakes the flusher if it was idle.
//
//doppel:hotpath
func (fw *frameWriter) end(buf []byte) {
	start := fw.start
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	fw.buf = buf
	fw.mu.Unlock()
	if start == 0 {
		// The flusher waits only on an empty buffer, so the frame that
		// made it non-empty is the one that must wake it.
		fw.cond.Signal()
	}
}

// cancel abandons the frame begin opened; the batch is left as it was.
func (fw *frameWriter) cancel() {
	fw.mu.Unlock()
}

// send copies one encoded payload in as a frame. It is for payloads
// that must outlive the batch (cached session responses); everything
// else encodes in place with begin/end.
func (fw *frameWriter) send(payload []byte) bool {
	buf, ok := fw.begin()
	if !ok {
		return false
	}
	fw.end(append(buf, payload...))
	return true
}

// armDeadline pushes the connection's write deadline ahead of a batch
// write.
func (fw *frameWriter) armDeadline() {
	if fw.cfg.conn != nil && fw.cfg.writeTimeout > 0 {
		_ = fw.cfg.conn.SetWriteDeadline(time.Now().Add(fw.cfg.writeTimeout))
	}
}

// close stops the flusher after the buffered frames are written. Sends
// that begin afterwards fail.
func (fw *frameWriter) close() {
	fw.mu.Lock()
	fw.closed = true
	fw.mu.Unlock()
	fw.cond.Signal()
	<-fw.done
}

func (fw *frameWriter) loop(w io.Writer) {
	defer close(fw.done)
	broken := false
	var spare []byte
	for {
		fw.mu.Lock()
		for len(fw.buf) == 0 && !fw.closed {
			fw.cond.Wait()
		}
		if len(fw.buf) == 0 {
			fw.mu.Unlock() // closed and drained
			return
		}
		if fw.cfg.flushEvery > 0 && !fw.closed && !broken {
			// Wait briefly for stragglers — the extra latency buys larger
			// batches under sustained pipelined load.
			fw.mu.Unlock()
			time.Sleep(fw.cfg.flushEvery)
			fw.mu.Lock()
		}
		batch := fw.buf
		fw.buf = spare[:0]
		fw.writing = len(batch)
		fw.mu.Unlock()

		if !broken {
			fw.armDeadline()
			if _, err := w.Write(batch); err != nil {
				broken = true
				if fw.cfg.onBroken != nil {
					fw.cfg.onBroken()
					fw.cfg.onBroken = nil
				}
			}
		}
		spare = nil
		if cap(batch) <= maxRetainedBatch {
			spare = batch
		}
		fw.mu.Lock()
		fw.writing = 0
		fw.mu.Unlock()
	}
}
