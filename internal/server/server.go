package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"doppel"
	"doppel/internal/metrics"
)

// Handler executes one named procedure inside a transaction. The
// returned Arg is sent back to the client on commit; return Nil for
// void procedures. The args slice is reused for a later request once
// the transaction completes, so a handler must not retain it; the byte
// strings in it are private copies the handler may keep (tx.PutBytes
// stores them by reference).
type Handler func(tx doppel.Tx, args []Arg) (Arg, error)

// Backend is the database surface the server drives. Both *doppel.DB
// and *doppel.Cluster satisfy it; the server is indifferent to whether
// requests land on one worker pool or are routed across shards.
type Backend interface {
	ExecAsync(fn doppel.TxFunc, done func(error))
}

// Options tunes a Server. The zero value means defaults.
type Options struct {
	// MaxInFlight bounds how many requests from one connection execute
	// concurrently; further requests wait in the kernel socket buffer.
	// 0 means 128.
	MaxInFlight int
	// MaxServerInFlight bounds transactional requests executing across
	// all connections. At the cap further requests are shed immediately
	// with ErrOverloaded instead of queueing behind the database workers,
	// which keeps latency bounded for the requests that are admitted.
	// 0 means unbounded (no shedding). Direct handlers are exempt.
	MaxServerInFlight int
	// FlushEvery is how long the response flusher waits for more
	// completions before flushing a batch. 0 flushes as soon as the
	// response queue goes idle, which keeps latency minimal; a small
	// interval (e.g. 100µs) trades latency for larger batches.
	FlushEvery time.Duration
	// MaxFrame bounds the payload of one frame in either direction;
	// oversized frames are rejected before allocation and the
	// connection is dropped. 0 means DefaultMaxFrame (1 MiB).
	MaxFrame int
	// ReadTimeout disconnects a connection that delivers no request for
	// this long — a stalled or half-open peer — without affecting other
	// connections. It is an idle timeout: a healthy quiet client must
	// reconnect or stay within it. 0 means never.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response batch write; a peer that stops
	// draining its socket for this long is disconnected. 0 means never
	// (the 32 MiB pending-byte cap still applies).
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxFrame > 1<<31 {
		o.MaxFrame = 1 << 31 // frame headers are uint32; larger would wrap
	}
	return o
}

// Server serves registered procedures over TCP on top of a Doppel
// database.
type Server struct {
	db    Backend
	opts  Options
	stats *metrics.RPCStats

	mu       sync.RWMutex
	handlers map[string]Handler
	directs  map[string]DirectHandler

	inflight chan struct{} // global transactional budget; nil = unbounded
	sheds    atomic.Uint64
	requests sync.Pool // *request frames, shared by every connection

	sessMu    sync.Mutex
	sessions  map[string]*session
	sessOrder []string

	lis    net.Listener
	connWG sync.WaitGroup
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed atomic.Bool
}

// DirectHandler executes one named procedure outside the transactional
// worker pool, on its own goroutine. Use it for control-plane calls
// that read server or replica state — possibly blocking (a catch-up
// wait) — without consuming a database worker. Direct handlers are
// exempt from the MaxServerInFlight budget but still count against the
// connection's MaxInFlight.
type DirectHandler func(args []Arg) (Arg, error)

// New returns a server over db with default Options.
func New(db Backend) *Server { return NewWithOptions(db, Options{}) }

// NewWithOptions returns a server over db with explicit tuning.
func NewWithOptions(db Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		db:       db,
		opts:     opts,
		stats:    metrics.NewRPCStats(),
		handlers: map[string]Handler{},
		directs:  map[string]DirectHandler{},
		sessions: map[string]*session{},
		conns:    map[net.Conn]struct{}{},
	}
	if opts.MaxServerInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxServerInFlight)
	}
	s.requests.New = func() any { return newRequest() }
	return s
}

// Register installs a procedure under name, replacing any previous one.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	s.handlers[name] = h
	s.mu.Unlock()
}

// RegisterDirect installs a non-transactional procedure under name,
// replacing any previous handler (direct or transactional) of that
// name.
func (s *Server) RegisterDirect(name string, h DirectHandler) {
	s.mu.Lock()
	s.directs[name] = h
	delete(s.handlers, name)
	s.mu.Unlock()
}

// Sheds reports how many requests were rejected with ErrOverloaded
// because the MaxServerInFlight budget was exhausted.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// session returns the dedup session for token, creating it (and
// evicting the oldest beyond sessionCap) as needed.
func (s *Server) session(token string) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[token]; ok {
		return sess
	}
	if len(s.sessOrder) >= sessionCap {
		oldest := s.sessOrder[0]
		s.sessOrder = s.sessOrder[1:]
		delete(s.sessions, oldest)
	}
	sess := newSession()
	s.sessions[token] = sess
	s.sessOrder = append(s.sessOrder, token)
	return sess
}

// Stats returns the server's request accounting: total requests served,
// how many failed, and a request latency histogram (nanoseconds from
// decode to response enqueue).
func (s *Server) Stats() (requests, errors uint64, latency *metrics.Hist) {
	return s.stats.Snapshot()
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7777")
// and returns the bound address. Serving happens on background
// goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ServeListener(lis)
	return lis.Addr().String(), nil
}

// ServeListener accepts from a listener the caller built — the hook for
// interposing a wrapper (TLS, a fault injector) between the network and
// the server. Serving happens on background goroutines until Close or
// Drain, which close lis.
func (s *Server) ServeListener(lis net.Listener) {
	s.lis = lis
	s.connWG.Add(1)
	go s.acceptLoop()
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
			conn.Close()
		}()
	}
}

// serverConn is one client connection's serving state, shared by its
// read loop and the completion callbacks of its in-flight requests.
type serverConn struct {
	s    *Server
	nc   net.Conn
	fw   *frameWriter
	sem  chan struct{} // bounds in-flight requests (Options.MaxInFlight)
	reqs sync.WaitGroup

	// sendCached delivers a session's cached response to this
	// connection; bound once so parking a duplicate allocates no
	// closure of its own.
	sendCached func([]byte)
}

// request is one pooled transactional request. The read loop decodes a
// frame into it and hands it to the database; its body and completion
// callback are built once, when the frame is first pooled, so the
// dispatch path allocates nothing per request. Between dispatch and the
// completion callback the frame belongs to the executing worker; the
// callback releases it to the pool as its last step.
type request struct {
	c      *serverConn
	sess   *session // dedup session the response completes, or nil
	h      Handler
	id     uint64
	args   []Arg
	result Arg
	start  time.Time
	body   doppel.TxFunc
	done   func(error)
}

func newRequest() *request {
	r := &request{}
	r.body = func(tx doppel.Tx) error {
		var err error
		r.result, err = r.h(tx, r.args)
		return err
	}
	r.done = r.complete
	return r
}

// maxRetainedArgs bounds the argument slice a pooled request keeps; a
// request with more arguments leaves its slice to the GC.
const maxRetainedArgs = 64

// release returns the frame to the pool, dropping its references to
// the handler's byte strings and result.
func (r *request) release(s *Server) {
	clear(r.args)
	r.args = r.args[:0]
	if cap(r.args) > maxRetainedArgs {
		r.args = nil
	}
	r.c, r.sess, r.h, r.result = nil, nil, nil, Nil
	s.requests.Put(r)
}

// exec hands a decoded request to the database. It blocks while the
// connection is at MaxInFlight.
//
//doppel:hotpath
func (c *serverConn) exec(r *request) {
	c.sem <- struct{}{}
	c.reqs.Add(1)
	r.start = time.Now()
	c.s.db.ExecAsync(r.body, r.done)
}

// complete is a request's completion callback, run on the database
// worker that finished it: it records the latency, encodes the response
// into the connection's batch buffer (or the session cache), and
// releases the frame and its budget slots.
//
//doppel:hotpath
func (r *request) complete(err error) {
	c, s := r.c, r.c.s
	s.stats.Record(time.Since(r.start).Nanoseconds(), err == nil)
	c.deliver(r.sess, r.id, r.result, err)
	if s.inflight != nil {
		<-s.inflight
	}
	r.release(s)
	<-c.sem
	c.reqs.Done()
}

// deliver routes one completed response: through the session (which
// caches a private copy and notifies every parked duplicate, including
// this connection) or straight into the batch buffer. A refused send
// means the client stopped draining responses; drop it rather than
// stall a database worker shared by every client.
//
//doppel:hotpath
func (c *serverConn) deliver(sess *session, id uint64, result Arg, err error) {
	if sess != nil {
		sess.complete(id, c.s.appendResult(nil, id, result, err))
		return
	}
	if !c.reply(id, result, err) {
		_ = c.nc.Close()
	}
}

// reply encodes one response straight into the connection's batch
// buffer. False means the writer refused it.
//
//doppel:hotpath
func (c *serverConn) reply(id uint64, result Arg, err error) bool {
	buf, ok := c.fw.begin()
	if !ok {
		return false
	}
	c.fw.end(c.s.appendResult(buf, id, result, err))
	return true
}

// replyErr encodes an error response the read loop answers itself.
func (c *serverConn) replyErr(id uint64, status byte, msg string) bool {
	buf, ok := c.fw.begin()
	if !ok {
		return false
	}
	c.fw.end(appendErrResponse(buf, id, status, msg))
	return true
}

// serveConn pumps one client connection: the read loop decodes requests
// into pooled frames and fans each straight into the database's worker
// pool via ExecAsync (no goroutine per request), while a frameWriter
// streams completions back as transactions commit — possibly out of
// request order. sem bounds in-flight requests per connection; response
// sends never block, so a completion callback can never stall a
// database worker on a slow client.
func (s *Server) serveConn(nc net.Conn) {
	c := &serverConn{s: s, nc: nc, sem: make(chan struct{}, s.opts.MaxInFlight)}
	c.fw = startFrameWriter(nc, frameWriterConfig{
		flushEvery:   s.opts.FlushEvery,
		conn:         nc,
		writeTimeout: s.opts.WriteTimeout,
		// A write timeout or broken pipe means the peer is gone; close so
		// the read loop below stops serving it.
		onBroken: func() { _ = nc.Close() },
	})
	c.sendCached = func(resp []byte) {
		if !c.fw.send(resp) {
			_ = nc.Close()
		}
	}
	var sess *session
	fr := newFrameReader(nc, s.opts.MaxFrame)
	r := s.requests.Get().(*request)
	for {
		if s.closed.Load() {
			break // draining: stop decoding, flush what's in flight
		}
		if t := s.opts.ReadTimeout; t > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(t))
		}
		payload, err := fr.next()
		if err != nil {
			break // EOF, peer reset, stall, or oversized frame: drop the connection
		}
		id, name, args, err := decodeRequest(payload, r.args[:0])
		r.args = args
		if err != nil {
			break // corrupt stream: nothing after this point can be trusted
		}
		if string(name) == sessionProc {
			token := ""
			if len(args) > 0 {
				token = string(args[0].Bytes())
			}
			sess = s.session(token)
			if !c.reply(id, Nil, nil) {
				break
			}
			continue
		}
		s.mu.RLock()
		d := s.directs[string(name)]
		var h Handler
		if d == nil {
			h = s.handlers[string(name)]
		}
		s.mu.RUnlock()
		if d == nil && h == nil {
			s.stats.RecordError()
			if !c.replyErr(id, statusUnknownProc, string(name)) {
				break
			}
			continue
		}
		if sess != nil {
			resp, dup := sess.claim(id, c.sendCached)
			if dup {
				// Replay the cached response, or — resp nil — stay parked
				// until the in-flight original completes.
				if resp != nil && !c.fw.send(resp) {
					break
				}
				continue
			}
		}
		if d != nil {
			s.runDirect(c, sess, id, d, append([]Arg(nil), args...))
			continue
		}
		if !s.admit() {
			// Shed: answer ErrOverloaded now instead of queueing behind
			// saturated workers. Never cache the rejection — the retry
			// must re-execute.
			s.sheds.Add(1)
			s.stats.RecordError()
			if sess != nil {
				sess.abandon(id)
			}
			if !c.replyErr(id, statusErrOverloaded, doppel.ErrOverloaded.Error()) {
				break
			}
			continue
		}
		r.c, r.sess, r.h, r.id = c, sess, h, id
		c.exec(r)
		r = s.requests.Get().(*request)
	}
	r.release(s)
	c.reqs.Wait()
	c.fw.close()
}

// admit takes a slot of the MaxServerInFlight budget, or reports that
// the request must be shed. The completion callback returns the slot.
func (s *Server) admit() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

// runDirect runs a direct handler on its own goroutine. args is the
// handler's own copy: the read loop reuses its decode buffers for the
// next request while the handler runs.
func (s *Server) runDirect(c *serverConn, sess *session, id uint64, d DirectHandler, args []Arg) {
	c.sem <- struct{}{}
	c.reqs.Add(1)
	go func() {
		defer c.reqs.Done()
		start := time.Now()
		result, err := d(args)
		s.stats.Record(time.Since(start).Nanoseconds(), err == nil)
		c.deliver(sess, id, result, err)
		<-c.sem
	}()
}

// appendResult appends one completed request's response to buf,
// downgrading results too large for the connection's frame limit to an
// error. The downgrade message states that the transaction committed:
// the client must not treat it as a safe-to-retry failure.
func (s *Server) appendResult(buf []byte, id uint64, result Arg, err error) []byte {
	if err != nil {
		return appendErrResponse(buf, id, statusForError(err), err.Error())
	}
	start := len(buf)
	buf = appendOKResponse(buf, id, result)
	if size := len(buf) - start; size > s.opts.MaxFrame {
		msg := "transaction committed but result dropped: " +
			(&FrameSizeError{Size: size, Limit: s.opts.MaxFrame}).Error()
		return appendErrResponse(buf[:start], id, statusErr, msg)
	}
	return buf
}

// Close stops accepting, closes open connections, and waits for
// in-flight requests to finish. In-flight responses may be lost; use
// Drain for a graceful shutdown.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.lis != nil {
		_ = s.lis.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		_ = conn.Close() // unblocks the connection's read loop
	}
	s.connMu.Unlock()
	s.connWG.Wait()
}

// Drain shuts down gracefully: stop accepting, stop reading further
// requests, finish every in-flight request and flush its response, then
// close the connections. Connections still busy after timeout are cut
// off; timeout 0 waits forever. Drain and Close are each effective at
// most once, in either order.
func (s *Server) Drain(timeout time.Duration) {
	if s.closed.Swap(true) {
		return
	}
	if s.lis != nil {
		_ = s.lis.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		// Expire the read loop: it stops decoding new requests, waits for
		// in-flight ones, flushes their responses, then closes the conn.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-done:
	case <-expired:
		s.connMu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.connMu.Unlock()
		<-done
	}
}
