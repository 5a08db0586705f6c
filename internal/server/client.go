package server

import (
	"context"
	"errors"
	"net"
	"sync"
)

// ErrClientClosed is returned for calls issued after (or failed by)
// Close.
var ErrClientClosed = errors.New("server: client closed")

// Call is one in-flight request, in the style of net/rpc: Go returns it
// immediately and delivers it on Done once the reply (or error) is in.
type Call struct {
	Name  string // procedure name
	Args  []Arg  // arguments
	Reply Arg    // result, valid after Done fires with Err == nil
	Err   error  // per-call or connection error
	// Disconnect reports that Err came from the connection dying, not
	// from the server answering: the call may never have executed, or
	// executed with its response lost. Retrying layers reconnect and
	// re-issue on Disconnect, and must not retry server-answered
	// failures (Disconnect false) that could have committed.
	Disconnect bool
	Done       chan *Call

	id uint64
}

func (c *Call) finish() {
	select {
	case c.Done <- c:
	default:
		// The caller under-buffered Done; dropping beats deadlocking the
		// read loop (net/rpc makes the same choice).
	}
}

// Client is a pipelined client for one server connection. It is safe
// for concurrent use: any number of goroutines may have calls in
// flight; requests share the connection through a batching writer and a
// reader goroutine matches responses to calls by ID, so responses may
// arrive out of request order.
type Client struct {
	conn     net.Conn
	fw       *frameWriter
	maxFrame int

	// mu is held across encoding a request into fw's batch buffer, so
	// a request is either in the batch or failed before teardown (which
	// sets err under mu) can close the writer.
	mu      sync.Mutex
	pending map[uint64]*Call
	nextID  uint64
	err     error // sticky connection error; nil while usable

	stopOnce sync.Once // tears down the frame writer exactly once
}

// Dial connects to a server with default tuning.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a server. Only FlushEvery and MaxFrame of
// opts apply client-side (the server enforces its own MaxInFlight).
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts), nil
}

// NewClient wraps an established connection — useful when the dial path
// is custom (a fault injector, a proxy, an in-memory pipe). The client
// owns conn and closes it on teardown.
func NewClient(conn net.Conn, opts Options) *Client {
	opts = opts.withDefaults()
	c := &Client{
		conn:     conn,
		fw:       startFrameWriter(conn, frameWriterConfig{flushEvery: opts.FlushEvery}),
		maxFrame: opts.MaxFrame,
		pending:  map[uint64]*Call{},
	}
	go c.readLoop(opts.MaxFrame)
	return c
}

// Go invokes the named procedure asynchronously. It returns the Call
// immediately; done (buffered, or nil to allocate one) receives the
// same Call when the response arrives. Issue many Go calls before
// reading Done to pipeline requests on the connection.
func (c *Client) Go(name string, args []Arg, done chan *Call) *Call {
	return c.issue(name, args, done, false, 0)
}

// GoID is Go with a caller-chosen request ID. A retrying layer that
// owns the ID space can re-issue the same ID on a fresh connection and
// let the server's session dedup replay (or coalesce with) the original
// execution. The caller is responsible for uniqueness within the
// connection: a client must use either Go or GoID, not both, and an ID
// still pending fails the new call immediately.
func (c *Client) GoID(id uint64, name string, args []Arg, done chan *Call) *Call {
	return c.issue(name, args, done, true, id)
}

func (c *Client) issue(name string, args []Arg, done chan *Call, explicit bool, id uint64) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	} else if cap(done) == 0 {
		panic("server: Go done channel is unbuffered")
	}
	call := &Call{Name: name, Args: args, Done: done}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		call.Err = err
		call.Disconnect = true
		call.finish()
		return call
	}
	if explicit {
		if _, dup := c.pending[id]; dup {
			c.mu.Unlock()
			call.Err = errors.New("server: request ID already pending")
			call.finish()
			return call
		}
	} else {
		id = c.nextID
		c.nextID++
	}
	call.id = id
	buf, sent := c.fw.begin()
	if sent {
		start := len(buf)
		buf = appendRequest(buf, id, name, args)
		if size := len(buf) - start; size > c.maxFrame {
			// Fail just this call; sending it would make the server drop
			// the whole connection (and a frame over 4 GiB would wrap the
			// length header and desync the stream).
			c.fw.cancel()
			c.mu.Unlock()
			call.Err = &FrameSizeError{Size: size, Limit: c.maxFrame}
			call.finish()
			return call
		}
		c.fw.end(buf)
	}
	c.pending[id] = call
	c.mu.Unlock()
	if !sent {
		// The server stopped draining requests; tear the connection
		// down, which fails this call (and the rest) via the read loop.
		_ = c.conn.Close()
	}
	return call
}

// Call invokes the named procedure and waits for its result. A
// procedure error comes back as a non-nil error; UnknownProcedureError
// (detect with errors.As) means the server has no such handler.
func (c *Client) Call(name string, args ...Arg) (Arg, error) {
	call := <-c.Go(name, args, make(chan *Call, 1)).Done
	return call.Reply, call.Err
}

// CallContext is Call bounded by ctx: when ctx ends first the call is
// abandoned (a late response is discarded) and ctx.Err() returned. The
// abandoned request may still execute on the server — pair with session
// dedup when re-issuing.
func (c *Client) CallContext(ctx context.Context, name string, args ...Arg) (Arg, error) {
	call := c.Go(name, args, make(chan *Call, 1))
	select {
	case <-call.Done:
		return call.Reply, call.Err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, call.id)
		c.mu.Unlock()
		return Nil, ctx.Err()
	}
}

// Err reports the client's sticky connection error: nil while the
// connection is usable, the fatal wire or close error afterward.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop matches responses to pending calls until the connection
// dies, then fails everything still outstanding.
func (c *Client) readLoop(maxFrame int) {
	fr := newFrameReader(c.conn, maxFrame)
	var wireErr error
	for {
		payload, err := fr.next()
		if err != nil {
			wireErr = err
			break
		}
		id, result, callErr, err := decodeResponse(payload)
		if err != nil {
			wireErr = err
			break
		}
		c.mu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if call == nil {
			continue // response to a call we gave up on; ignore
		}
		call.Reply, call.Err = result, callErr
		call.finish()
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = wireErr
	}
	failed := make([]*Call, 0, len(c.pending))
	for id, call := range c.pending {
		delete(c.pending, id)
		call.Err = c.err
		call.Disconnect = true
		failed = append(failed, call)
	}
	c.mu.Unlock()
	for _, call := range failed {
		call.finish()
	}
	c.stop()
}

// stop shuts the frame writer down. Callers must have set c.err first
// so new Go calls fail fast instead of sending.
func (c *Client) stop() {
	c.stopOnce.Do(c.fw.close)
}

// Close tears down the connection. Calls still in flight fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = ErrClientClosed
	}
	c.mu.Unlock()
	err := c.conn.Close() // unblocks the read loop, which fails pending calls
	c.stop()
	return err
}
