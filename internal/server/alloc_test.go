package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"doppel"
)

// servePipe serves one in-memory connection to s and returns a client
// on its other end; cleanup closes the client and waits for the
// connection's serving loop to finish.
func servePipe(t *testing.T, s *Server) *Client {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(srvEnd)
		_ = srvEnd.Close()
	}()
	c := NewClient(cliEnd, Options{})
	t.Cleanup(func() {
		c.Close()
		<-served
	})
	return c
}

func openDB(t *testing.T) *doppel.DB {
	t.Helper()
	db := doppel.Open(doppel.Options{Workers: 2})
	t.Cleanup(db.Close)
	return db
}

// TestWireAllocs pins the wire's steady-state allocation budget: a
// pipelined round trip of an int-args, int-result procedure allocates
// the client's *Call and nothing else — no frame buffers, decoded
// args, request frames, closures or DB requests on either end.
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	db := openDB(t)
	if err := db.Exec(func(tx doppel.Tx) error { return tx.PutInt("k", 40) }); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.Register("addk", func(tx doppel.Tx, args []Arg) (Arg, error) {
		n, err := args[0].Int64()
		if err != nil {
			return Nil, err
		}
		k, err := tx.GetInt("k")
		return Int(k + n), err
	})
	c := servePipe(t, s)

	const depth = 32
	done := make(chan *Call, depth)
	args := []Arg{Int(2)}
	roundTrip := func() {
		for i := 0; i < depth; i++ {
			c.Go("addk", args, done)
		}
		for i := 0; i < depth; i++ {
			call := <-done
			if n, err := call.Reply.Int64(); call.Err != nil || err != nil || n != 42 {
				t.Fatalf("reply %v, %v, %v", call.Reply, call.Err, err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		roundTrip() // grow the batch and read buffers, fill the pools
	}
	n := testing.AllocsPerRun(200, roundTrip)
	if perCall := n / depth; perCall > 1 {
		t.Errorf("wire round trip allocates %.2f objects/call, want <= 1 (the *Call)", perCall)
	}
}

// await waits for one call on done. A response corrupted in a reused
// buffer may carry another request's ID and leave its call pending, so
// the wait is bounded.
func await(t *testing.T, done chan *Call) *Call {
	t.Helper()
	select {
	case call := <-done:
		return call
	case <-time.After(10 * time.Second):
		t.Fatal("call still pending after 10s")
		return nil
	}
}

// pipelined issues calls made by mk for ids [from, to) with depth calls
// in flight, failing the test on any call error.
func pipelined(t *testing.T, c *Client, from, to uint64, mk func(id uint64) (string, []Arg)) {
	t.Helper()
	const depth = 64
	done := make(chan *Call, depth)
	inflight := 0
	for id := from; id < to; id++ {
		if inflight == depth {
			if call := await(t, done); call.Err != nil {
				t.Fatalf("%s: %v", call.Name, call.Err)
			}
			inflight--
		}
		name, args := mk(id)
		c.GoID(id, name, args, done)
		inflight++
	}
	for ; inflight > 0; inflight-- {
		if call := await(t, done); call.Err != nil {
			t.Fatalf("%s: %v", call.Name, call.Err)
		}
	}
}

// TestCachedSessionResponseSurvivesTraffic checks that a session's
// cached response is a private copy: later pipelined traffic reuses the
// connection's read and batch buffers, and a replay of the cached ID
// must still return the original bytes.
func TestCachedSessionResponseSurvivesTraffic(t *testing.T) {
	db := openDB(t)
	s := New(db)
	s.Register("echo", func(tx doppel.Tx, args []Arg) (Arg, error) { return args[0], nil })
	c := servePipe(t, s)
	if call := await(t, c.GoID(0, sessionProc, []Arg{Str("tok")}, nil).Done); call.Err != nil {
		t.Fatal(call.Err)
	}
	want := "first response payload"
	if call := await(t, c.GoID(1, "echo", []Arg{Str(want)}, nil).Done); call.Err != nil || call.Reply.String() != want {
		t.Fatalf("echo: %v, %v", call.Reply, call.Err)
	}
	sess := s.session("tok")
	sess.mu.Lock()
	cached := bytes.Clone(sess.results[1].resp)
	sess.mu.Unlock()

	pipelined(t, c, 2, 2000, func(id uint64) (string, []Arg) {
		return "echo", []Arg{Str(fmt.Sprintf("overwrite-%08d-%s", id, want))}
	})

	sess.mu.Lock()
	now := bytes.Clone(sess.results[1].resp)
	sess.mu.Unlock()
	if !bytes.Equal(now, cached) {
		t.Fatalf("cached response changed:\n got %q\nwant %q", now, cached)
	}
	if call := await(t, c.GoID(1, "echo", []Arg{Str("must not execute")}, nil).Done); call.Err != nil || call.Reply.String() != want {
		t.Fatalf("replay: %v, %v; want %q", call.Reply, call.Err, want)
	}
}

// TestStoredBytesArgsSurviveTraffic checks that byte-string args are
// private copies: values a handler stored by reference with PutBytes
// must not change as the read buffer is reused for later requests.
func TestStoredBytesArgsSurviveTraffic(t *testing.T) {
	db := openDB(t)
	s := New(db)
	s.Register("put", func(tx doppel.Tx, args []Arg) (Arg, error) {
		return Nil, tx.PutBytes(args[0].String(), args[1].Bytes())
	})
	c := servePipe(t, s)
	value := func(id uint64) string { return fmt.Sprintf("value-%06d", id) }
	pipelined(t, c, 0, 2000, func(id uint64) (string, []Arg) {
		return "put", []Arg{Str(fmt.Sprintf("key-%d", id%500)), Str(value(id))}
	})
	for k := uint64(0); k < 500; k++ {
		var got []byte
		err := db.Exec(func(tx doppel.Tx) error {
			var err error
			got, err = tx.GetBytes(fmt.Sprintf("key-%d", k))
			return err
		})
		if want := value(1500 + k); err != nil || string(got) != want {
			t.Fatalf("key-%d = %q, %v; want %q", k, got, err, want)
		}
	}
}

// TestDirectHandlerArgsSurviveTraffic checks that a direct handler,
// running on its own goroutine, owns its args: pipelined traffic
// decoded on the same connection while it runs must not rewrite them.
func TestDirectHandlerArgsSurviveTraffic(t *testing.T) {
	db := openDB(t)
	s := New(db)
	s.Register("echo", func(tx doppel.Tx, args []Arg) (Arg, error) { return args[0], nil })
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(1)
	s.RegisterDirect("hold", func(args []Arg) (Arg, error) {
		n, _ := args[0].Int64()
		b := bytes.Clone(args[1].Bytes())
		held.Done()
		<-release
		if m, _ := args[0].Int64(); m != n || !bytes.Equal(args[1].Bytes(), b) {
			return Nil, errors.New("direct handler args rewritten")
		}
		return Int(n), nil
	})
	c := servePipe(t, s)
	hold := c.GoID(0, "hold", []Arg{Int(7), Str("held bytes")}, nil)
	held.Wait()
	pipelined(t, c, 1, 2000, func(id uint64) (string, []Arg) {
		return "echo", []Arg{Int(int64(id))}
	})
	close(release)
	if call := await(t, hold.Done); call.Err != nil {
		t.Fatal(call.Err)
	}
}
