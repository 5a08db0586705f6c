package main

import (
	"errors"
	"fmt"
	"time"

	"doppel"
	"doppel/internal/core"
	"doppel/internal/rng"
	"doppel/internal/server"
	"doppel/internal/store"
	"doppel/internal/workload"
)

// likeWire is the paper's LIKE workload (§8.5) served by internal/server
// over one pipelined loopback TCP connection: half the requests record
// a like (the user's last like, plus one on the page's count), half read
// a user's last like and a page's count. Pages are Zipf-popular. On two
// cores no page splits, so this measures the wire and plain OCC: the
// "everything else costs no more" half of the paper's claim.
type likeWire struct {
	users, pages []string
	pageBytes    [][]byte // the bytes a like stores, one shared slice per page
	zipf         *workload.Zipf

	db     *doppel.DB
	dir    string
	srv    *server.Server
	client *server.Client
	tr     *tracer // the procedures' span store; nil in untraced runs
}

// likeWindow is how many requests the client keeps in flight on the
// connection.
const likeWindow = 64

const zipfAlpha = 1.4

func newLikeWire(cfg config, tr *tracer) *likeWire {
	l := &likeWire{
		tr:    tr,
		users: keyTable('u', cfg.keys),
		pages: keyTable('p', cfg.keys),
		zipf:  workload.NewZipf(cfg.keys, zipfAlpha),
	}
	l.pageBytes = make([][]byte, len(l.pages))
	for i, p := range l.pages {
		l.pageBytes[i] = []byte(p)
	}
	return l
}

func (l *likeWire) params() (int, float64) { return likeWindow, 0 }

// open starts a database whose redo log acknowledges from memory (the
// paper's asynchronous batched logging, §3), preloads every user and
// page, and serves it on a loopback port with one client connection.
func (l *likeWire) open(dir string) error {
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, PhaseLength: 20 * time.Millisecond, RedoLog: dir})
	if err != nil {
		return err
	}
	l.db, l.dir = db, dir
	preloadLike(db.Internal().Store(), l.users, l.pages)
	l.srv = server.New(db)
	l.srv.Register("like", l.likeProc)
	l.srv.Register("read", l.readProc)
	addr, err := l.srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return err
	}
	if l.client, err = server.Dial(addr); err != nil {
		l.srv.Close()
		db.Close()
		return err
	}
	return nil
}

func preloadLike(st *store.Store, users, pages []string) {
	none := store.BytesValue(nil)
	for _, u := range users {
		st.Preload(u, none)
	}
	preloadInts(st, pages, 0)
}

// Procedure arguments: slot index, root span ID (0 untraced), user,
// page. The procedures look keys up by index so they allocate nothing
// of their own.
func (l *likeWire) submitter(g *gen) submitter {
	c := l.client
	return func(s *slot) {
		s.args = append(s.args[:0], server.Int(int64(s.idx)), server.Int(int64(s.id)), server.Int(int64(s.a)), server.Int(int64(s.b)))
		name := "like"
		if s.kind == opRead {
			name = "read"
		}
		c.Go(name, s.args, g.calls)
	}
}

func (l *likeWire) likeProc(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
	id, u, p, err := likeArgs(args)
	if err != nil {
		return server.Nil, err
	}
	t0 := now()
	err = l.like(tx, u, p)
	l.traceBody(id, t0)
	return server.Nil, err
}

func (l *likeWire) readProc(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
	id, u, p, err := likeArgs(args)
	if err != nil {
		return server.Nil, err
	}
	t0 := now()
	n, err := l.read(tx, u, p)
	l.traceBody(id, t0)
	return server.Int(n), err
}

func (l *likeWire) traceBody(id int64, t0 int64) {
	if id != 0 {
		l.tr.add(span{start: t0, end: now(), id: uint32(id), name: spanBody})
	}
}

var (
	errBadArgs      = errors.New("like procedure: want slot, span id, user and page")
	errServerErrors = errors.New("server counted error responses")
)

func likeArgs(args []server.Arg) (id, u, p int64, err error) {
	if len(args) != 4 {
		return 0, 0, 0, errBadArgs
	}
	var e [3]error
	id, e[0] = args[1].Int64()
	u, e[1] = args[2].Int64()
	p, e[2] = args[3].Int64()
	return id, u, p, errors.Join(e[:]...)
}

func (l *likeWire) like(tx doppel.Tx, u, p int64) error {
	if err := tx.PutBytes(l.users[u], l.pageBytes[p]); err != nil {
		return err
	}
	return tx.Add(l.pages[p], 1)
}

// read returns the page's like count; the user's last like must name a
// page or be empty, which the result encodes as -1 when it does not.
func (l *likeWire) read(tx doppel.Tx, u, p int64) (int64, error) {
	last, err := tx.GetBytes(l.users[u])
	if err != nil {
		return 0, err
	}
	n, err := tx.GetInt(l.pages[p])
	if err != nil {
		return 0, err
	}
	if len(last) > 0 && last[0] != 'p' {
		return -1, nil
	}
	return n, nil
}

func (l *likeWire) dbs() []*doppel.DB { return []*doppel.DB{l.db} }

func (l *likeWire) logDirs() []string { return []string{l.dir} }

func (l *likeWire) router() *doppel.Cluster { return nil }

func (l *likeWire) closedOp(s *slot, r *rng.Rand) {
	s.kind = opWrite
	if r.Uint64()&1 == 0 {
		s.kind = opRead
	}
	s.a = int32(r.Intn(len(l.users)))
	s.b = int32(l.zipf.Sample(r))
}

func (l *likeWire) openOp(s *slot, r *rng.Rand) { l.closedOp(s, r) }

// body is the embedded form of the procedures, for the direct drive.
func (l *likeWire) body(tx doppel.Tx, s *slot) error {
	if s.kind == opWrite {
		return l.like(tx, int64(s.a), int64(s.b))
	}
	n, err := l.read(tx, int64(s.a), int64(s.b))
	s.val = n
	return err
}

func (l *likeWire) checkRead(s *slot) error {
	if s.val < 0 {
		return fmt.Errorf("read of user %d: last like is not a page, or count %d", s.a, s.val)
	}
	return nil
}

func (l *likeWire) check(w window) []error {
	var errs []error
	if _, n, _ := l.srv.Stats(); n != 0 {
		errs = append(errs, fmt.Errorf("%w: %d", errServerErrors, n))
	}
	if err := l.client.Err(); err != nil {
		errs = append(errs, fmt.Errorf("client connection: %w", err))
	}
	return errs
}

// layers reports the server's own request latency, decode to response
// enqueued, over the whole run. The wire is the only path between the
// client's Go and the body, so the spans' queue and acknowledgement
// gaps are the inbound and outbound wire times.
func (l *likeWire) layers(m map[string]float64, sp spanStats) {
	_, _, h := l.srv.Stats()
	m["server.req_p50_us"] = us(float64(h.Quantile(0.5)))
	m["server.req_p90_us"] = us(float64(h.Quantile(0.9)))
	m["server.in_p50_us"] = us(percentile(sp.queue, 0.5))
	m["server.out_p50_us"] = us(percentile(sp.ack, 0.5))
}

// close tears down in dependency order: the client, the server (which
// finishes its in-flight requests), then the database.
func (l *likeWire) close() {
	_ = l.client.Close()
	l.srv.Close()
	l.db.Close()
}

// post requires the page counts to sum to the acknowledged likes.
func (l *likeWire) post(g *gen) []error {
	var sum int64
	st := l.db.Internal().Store()
	for _, p := range l.pages {
		n, err := recordInt(st, p)
		if err != nil {
			return []error{err}
		}
		sum += n
	}
	if sum != g.ackedWrites {
		return []error{fmt.Errorf("%w: page counts sum to %d, %d likes acknowledged", errConservation, sum, g.ackedWrites)}
	}
	return nil
}

func (l *likeWire) directDB() *core.DB {
	st := store.New()
	preloadLike(st, l.users, l.pages)
	return core.Open(st, core.DefaultConfig(2))
}
