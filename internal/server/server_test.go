package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"doppel"
)

func newServerOpts(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	db := doppel.Open(doppel.Options{Workers: 2})
	s := NewWithOptions(db, opts)
	s.Register("incr", func(tx doppel.Tx, args []Arg) (Arg, error) {
		if len(args) != 2 {
			return Nil, errors.New("incr needs key and amount")
		}
		n, err := args[1].Int64()
		if err != nil {
			return Nil, err
		}
		return Nil, tx.Add(args[0].String(), n)
	})
	s.Register("get", func(tx doppel.Tx, args []Arg) (Arg, error) {
		if len(args) != 1 {
			return Nil, errors.New("get needs a key")
		}
		n, err := tx.GetInt(args[0].String())
		if err != nil {
			return Nil, err
		}
		return Int(n), nil
	})
	s.Register("echo", func(tx doppel.Tx, args []Arg) (Arg, error) {
		if len(args) != 1 {
			return Nil, errors.New("echo needs one arg")
		}
		return args[0], nil
	})
	s.Register("sleep-echo", func(tx doppel.Tx, args []Arg) (Arg, error) {
		ms, err := args[0].Int64()
		if err != nil {
			return Nil, err
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return args[1], nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
		db.Close()
	})
	return s, c
}

func newServer(t *testing.T) (*Server, *Client) {
	return newServerOpts(t, Options{})
}

func TestCallRoundTrip(t *testing.T) {
	_, c := newServer(t)
	if _, err := c.Call("incr", Str("counter"), Int(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("incr", Str("counter"), Int(3)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Call("get", Str("counter"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := got.Int64(); err != nil || n != 8 {
		t.Fatalf("counter = %v (%v)", got, err)
	}
}

func TestUnknownProcedureTypedError(t *testing.T) {
	_, c := newServer(t)
	_, err := c.Call("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	var unknown *UnknownProcedureError
	if !errors.As(err, &unknown) || unknown.Name != "nope" {
		t.Fatalf("err = %v, want UnknownProcedureError{nope}", err)
	}
	// The connection stays usable afterwards.
	if _, err := c.Call("incr", Str("k"), Int(1)); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	_, c := newServer(t)
	if _, err := c.Call("incr", Str("onlykey")); err == nil {
		t.Fatal("expected arg error")
	}
	if _, err := c.Call("get", Str("k"), Str("extra")); err == nil {
		t.Fatal("expected arg error")
	}
	// Text integers parse for integer parameters (CLI interop).
	if _, err := c.Call("incr", Str("k"), Str("7")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Call("get", Str("k"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "7" {
		t.Fatalf("k = %v", got)
	}
}

// TestOutOfOrderCompletion pipelines a slow call behind nothing, then a
// fast call behind it, and requires the fast response to overtake the
// slow one on the same connection.
func TestOutOfOrderCompletion(t *testing.T) {
	_, c := newServer(t)
	slow := c.Go("sleep-echo", []Arg{Int(300), Str("slow")}, nil)
	time.Sleep(10 * time.Millisecond) // let the server pick up the slow call first
	fast := c.Go("sleep-echo", []Arg{Int(0), Str("fast")}, nil)

	select {
	case call := <-fast.Done:
		if call.Err != nil || call.Reply.String() != "fast" {
			t.Fatalf("fast: %v %v", call.Reply, call.Err)
		}
	case <-slow.Done:
		t.Fatal("slow call completed before fast call: no pipelining")
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	call := <-slow.Done
	if call.Err != nil || call.Reply.String() != "slow" {
		t.Fatalf("slow: %v %v", call.Reply, call.Err)
	}
}

// TestManyInFlight floods one connection with more concurrent calls
// than the server's in-flight bound and checks every response is routed
// to the right call.
func TestManyInFlight(t *testing.T) {
	_, c := newServerOpts(t, Options{MaxInFlight: 8})
	const n = 1000
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		calls[i] = c.Go("echo", []Arg{Int(int64(i))}, nil)
	}
	for i, call := range calls {
		<-call.Done
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		if got, _ := call.Reply.Int64(); got != int64(i) {
			t.Fatalf("call %d got reply %v: responses misrouted", i, call.Reply)
		}
	}

	// Writes interleaved with the echoes must all land.
	done := make(chan *Call, n)
	for i := 0; i < n; i++ {
		c.Go("incr", []Arg{Str("many"), Int(1)}, done)
	}
	for i := 0; i < n; i++ {
		if call := <-done; call.Err != nil {
			t.Fatal(call.Err)
		}
	}
	got, err := c.Call("get", Str("many"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Int64(); v != n {
		t.Fatalf("many = %v, want %d", got, n)
	}
}

// TestOversizedFrameRejected checks that a frame header announcing more
// than MaxFrame bytes drops the connection without the server
// attempting the allocation, and that a corrupt payload does the same.
func TestOversizedFrameRejected(t *testing.T) {
	s, _ := newServerOpts(t, Options{MaxFrame: 4096})
	addr := s.lis.Addr().String()

	expectDropped := func(t *testing.T, raw []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after bad frame: %v, want EOF", err)
		}
	}

	t.Run("oversized", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<31) // 2 GiB announced
		expectDropped(t, hdr[:])
	})
	t.Run("corrupt", func(t *testing.T) {
		payload := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		expectDropped(t, append(hdr[:], payload...))
	})

	// The client side enforces the same bound on responses.
	t.Run("client", func(t *testing.T) {
		if _, err := newFrameReader(readerOf(t, 1<<31), 4096).next(); err == nil {
			t.Fatal("oversized frame accepted")
		} else {
			var fse *FrameSizeError
			if !errors.As(err, &fse) || fse.Limit != 4096 {
				t.Fatalf("err = %v, want FrameSizeError", err)
			}
		}
	})
}

func readerOf(t *testing.T, announced uint32) io.Reader {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], announced)
	r, w := net.Pipe()
	go func() {
		_, _ = w.Write(hdr[:])
		_ = w.Close()
	}()
	t.Cleanup(func() { r.Close() })
	return r
}

func TestConcurrentClients(t *testing.T) {
	s, _ := newServer(t)
	addr := s.lis.Addr().String()
	const clients = 4
	const perClient = 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			done := make(chan *Call, perClient)
			for j := 0; j < perClient; j++ {
				c.Go("incr", []Arg{Str("shared"), Int(1)}, done)
			}
			for j := 0; j < perClient; j++ {
				if call := <-done; call.Err != nil {
					t.Error(call.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("get", Str("shared"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != fmt.Sprint(clients*perClient) {
		t.Fatalf("shared = %v, want %d", got, clients*perClient)
	}
}

func TestCloseFailsPending(t *testing.T) {
	_, c := newServer(t)
	call := c.Go("sleep-echo", []Arg{Int(2000), Str("x")}, nil)
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case <-call.Done:
		if call.Err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
	if _, err := c.Call("get", Str("k")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after close: %v, want ErrClientClosed", err)
	}
}

func TestServerStats(t *testing.T) {
	s, c := newServer(t)
	if _, err := c.Call("incr", Str("k"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("nope"); err == nil {
		t.Fatal("expected error")
	}
	requests, errs, lat := s.Stats()
	if requests != 2 || errs != 1 {
		t.Fatalf("requests=%d errors=%d, want 2/1", requests, errs)
	}
	// Only executed requests contribute latency samples; the unknown
	// procedure must not drag the quantiles toward zero.
	if lat.Count() != 1 {
		t.Fatalf("latency samples = %d, want 1", lat.Count())
	}
}

// TestOversizedRequestFailsCall checks the client rejects a request
// over the frame limit by failing only that call, leaving the
// connection usable for the rest of the pipeline.
func TestOversizedRequestFailsCall(t *testing.T) {
	_, c := newServer(t)
	big := make([]byte, DefaultMaxFrame+1)
	_, err := c.Call("echo", Bytes(big))
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want FrameSizeError", err)
	}
	if _, err := c.Call("incr", Str("k"), Int(1)); err != nil {
		t.Fatalf("connection unusable after oversized request: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	id, name, args, err := decodeRequest(appendRequest(nil, 42, "proc", []Arg{Str("a"), Str(""), Int(-7), Bytes([]byte{1, 2}), Nil}), nil)
	if err != nil || id != 42 || string(name) != "proc" || len(args) != 5 {
		t.Fatalf("%d %q %v %v", id, name, args, err)
	}
	if n, _ := args[2].Int64(); n != -7 {
		t.Fatalf("args[2] = %v", args[2])
	}
	if string(args[3].Bytes()) != "\x01\x02" || !args[4].IsNil() {
		t.Fatalf("args = %v", args)
	}

	rid, res, callErr, wireErr := decodeResponse(appendOKResponse(nil, 9, Int(3)))
	if wireErr != nil || callErr != nil || rid != 9 {
		t.Fatalf("%d %v %v %v", rid, res, callErr, wireErr)
	}
	if n, _ := res.Int64(); n != 3 {
		t.Fatalf("res = %v", res)
	}
	rid, _, callErr, wireErr = decodeResponse(appendErrResponse(nil, 10, statusErr, "bad"))
	if wireErr != nil || rid != 10 || callErr == nil || callErr.Error() != "bad" {
		t.Fatalf("%d %v %v", rid, callErr, wireErr)
	}
	rid, _, callErr, wireErr = decodeResponse(appendErrResponse(nil, 11, statusUnknownProc, "p"))
	var unknown *UnknownProcedureError
	if wireErr != nil || rid != 11 || !errors.As(callErr, &unknown) {
		t.Fatalf("%d %v %v", rid, callErr, wireErr)
	}

	if _, _, _, err := decodeRequest([]byte{0}, nil); err == nil {
		t.Fatal("truncated request should fail")
	}
	if _, _, _, wireErr := decodeResponse(nil); wireErr == nil {
		t.Fatal("empty response should fail")
	}
	if _, _, _, wireErr := decodeResponse([]byte{1, 99}); wireErr == nil {
		t.Fatal("unknown status should fail")
	}
}
