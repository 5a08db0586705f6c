package server

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// gatedWriter blocks every Write until open is closed, standing in for
// a peer that has stopped draining its socket.
type gatedWriter struct {
	open chan struct{}
	w    io.Writer
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.open
	return g.w.Write(p)
}

// TestFrameWriterCapAndDrain fills a frameWriter whose peer has stopped
// reading until the pending-byte cap refuses a frame, then lets the
// peer drain and checks that close delivers every accepted frame
// intact and in order.
func TestFrameWriterCapAndDrain(t *testing.T) {
	payload := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%07d", i)), 8<<10/7)
	}
	pr, pw := io.Pipe()
	received := make(chan int, 1)
	go func() {
		fr := newFrameReader(pr, DefaultMaxFrame)
		n := 0
		for {
			got, err := fr.next()
			if err != nil {
				if err != io.EOF {
					t.Errorf("frame %d: %v", n, err)
				}
				break
			}
			if !bytes.Equal(got, payload(n)) {
				t.Errorf("frame %d corrupted", n)
				break
			}
			n++
		}
		_ = pr.Close()
		received <- n
	}()

	gate := &gatedWriter{open: make(chan struct{}), w: pw}
	fw := startFrameWriter(gate, frameWriterConfig{})
	frame := len(payload(0)) + 4
	accepted := 0
	for fw.send(payload(accepted)) {
		accepted++
		if accepted > 2*maxPendingBytes/frame {
			t.Fatal("pending-byte cap never refused a frame")
		}
	}
	if want := maxPendingBytes / frame; accepted < want {
		t.Fatalf("refused after %d frames, want at least %d", accepted, want)
	}
	close(gate.open)
	fw.close()
	if fw.send(payload(0)) {
		t.Fatal("send after close accepted")
	}
	_ = pw.Close()
	if n := <-received; n != accepted {
		t.Fatalf("peer received %d frames, want %d", n, accepted)
	}
}

// TestFlushEveryRoundTrip runs pipelined traffic with the flusher's
// straggler wait enabled on both ends.
func TestFlushEveryRoundTrip(t *testing.T) {
	opts := Options{FlushEvery: 200 * time.Microsecond}
	s, _ := newServerOpts(t, opts)
	c, err := DialOptions(s.lis.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan *Call, 64)
	for i := 0; i < 64; i++ {
		c.Go("echo", []Arg{Int(int64(i))}, done)
	}
	seen := make(map[int64]bool)
	for i := 0; i < 64; i++ {
		call := await(t, done)
		n, err := call.Reply.Int64()
		if call.Err != nil || err != nil || seen[n] {
			t.Fatalf("reply %v, %v, %v", call.Reply, call.Err, err)
		}
		seen[n] = true
	}
}
