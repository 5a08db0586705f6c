package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"doppel"
	"doppel/internal/rng"
	"doppel/internal/server"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock relative to it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

// slot is one request's state, preallocated and reused so the generator
// itself allocates nothing per request: allocs_per_txn is then the
// program's own count. The generator goroutine fills a slot before
// submitting it and reads it back only after the completion arrives.
type slot struct {
	idx    int32
	kind   opKind
	open   bool   // issued by the open-loop schedule
	cross  bool   // inputs span both shards (transfer-durable)
	id     uint32 // root span ID while tracing, 0 otherwise
	a, b   int32  // workload inputs: key indices
	start  int64  // submit time (closed loop) or due time (open loop)
	sent   int64  // actual submit time
	end    int64  // acknowledgement time
	val    int64  // value the body read, checked by the workload
	err    error
	fn     doppel.TxFunc
	done   func(error)
	args   []server.Arg
	parent *gen
}

// txSource generates inputs and executes bodies; the generator owns the
// schedule and the bookkeeping.
type txSource interface {
	// closedOp and openOp fill s's inputs (kind, a, b, cross).
	closedOp(s *slot, r *rng.Rand)
	openOp(s *slot, r *rng.Rand)
	// body executes s's operation inside tx.
	body(tx doppel.Tx, s *slot) error
	// checkRead validates a value an acknowledged read returned.
	checkRead(s *slot) error
}

// submitter issues one slot's transaction asynchronously. Completions
// come back on gen.comp (embedded) or gen.calls (wire).
type submitter func(s *slot)

// recorder accumulates one measured window's exact samples, in
// acknowledgement order, and the marks that cut the window into
// sub-windows.
type recorder struct {
	acked, failed int64
	writes, reads []uint32 // ns, submit or due time to acknowledgement
	late          []uint32 // ns, how late the open-loop generator issued
	every         int64    // sub-window length in ns; 0 = one window
	marks         []mark
}

// mark is the state at one sub-window boundary. Marks are cheap (no
// stop-the-world); everything derived from them is computed after the
// run.
type mark struct {
	at            int64
	acked         int64
	writes, reads int
	cpu           time.Duration
	allocs, gcs   uint64
	steal, ticks  uint64 // host CPU ticks, for the sub-window's steal share
	rss           int64  // resident bytes
}

// newRecorder returns a recorder for d of load at the rates the warm-up
// recorder w saw, with half again as much room: the window's samples
// then rarely grow their arrays (each growth copies them while load
// runs), and the benchmark's own memory stays small beside the
// program's, whose GC pacing it would otherwise shift.
func newRecorder(w *recorder, d, every time.Duration) *recorder {
	scale := 1.5 * d.Seconds() / w.seconds()
	room := func(n int) int { return int(float64(n)*scale) + 1024 }
	return &recorder{
		writes: make([]uint32, 0, room(len(w.writes))),
		reads:  make([]uint32, 0, room(len(w.reads))),
		late:   make([]uint32, 0, room(len(w.late))),
		every:  int64(every),
		marks:  make([]mark, 0, int(d/max(every, time.Millisecond))+2),
	}
}

// sample clamps a duration in ns to a sample; a latency past 4.29 s
// reads as 4.29 s.
func sample(ns int64) uint32 { return uint32(min(max(ns, 0), math.MaxUint32)) }

func (r *recorder) mark(t int64) {
	m := mark{at: t, acked: r.acked, writes: len(r.writes), reads: len(r.reads), cpu: cpuTime(), rss: residentBytes()}
	m.allocs, m.gcs = runtimeCounts()
	m.steal, m.ticks = hostTicks()
	r.marks = append(r.marks, m)
}

func (r *recorder) nextMark() int64 {
	if r.every == 0 || len(r.marks) == 0 {
		return math.MaxInt64
	}
	return r.marks[len(r.marks)-1].at + r.every
}

// first and last are the marks at the window's start and end.
func (r *recorder) first() mark { return r.marks[0] }
func (r *recorder) last() mark  { return r.marks[len(r.marks)-1] }

func (r *recorder) seconds() float64 { return float64(r.last().at-r.first().at) / 1e9 }

// stealFrac is the share of host CPU time stolen between marks a and b.
func stealFrac(a, b mark) float64 {
	if b.ticks <= a.ticks {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
}

// gen is the single load-generating goroutine's state: a closed loop of
// window outstanding operations, plus an optional open-loop schedule of
// one operation every openEvery nanoseconds. All of it is touched only
// by that goroutine, except what completion callbacks send on comp.
type gen struct {
	wl        txSource
	submit    submitter
	rng       *rng.Rand
	slots     []*slot
	free      []int32
	comp      chan int32        // embedded completions (slot index)
	calls     chan *server.Call // wire completions
	window    int
	openEvery int64
	nextDue   int64
	closedOut int
	out       int

	rec     *recorder
	tr      *tracer // span store, nil in untraced runs
	tracing bool    // submissions get root span IDs
	nextID  uint32

	// Totals over the whole run, for the conservation checks.
	ackedWrites int64
	opErrs      int64
	errSample   []error
	dropAcks    int // test hook: acknowledged writes left out of ackedWrites
}

// maxSlots bounds in-flight operations: the closed window plus open-loop
// operations waiting out a split phase (2,000/s for 20 ms is about 40).
const maxSlots = 4096

func newGen(wl txSource, seed uint64, window int, openRate float64, tr *tracer) *gen {
	g := &gen{
		wl:     wl,
		tr:     tr,
		rng:    rng.New(seed),
		comp:   make(chan int32, maxSlots), // sized to the slots, so callbacks never block
		calls:  make(chan *server.Call, maxSlots),
		window: window,
	}
	if openRate > 0 {
		g.openEvery = int64(float64(time.Second) / openRate)
	}
	g.slots = make([]*slot, maxSlots)
	g.free = make([]int32, 0, maxSlots)
	for i := range g.slots {
		s := &slot{idx: int32(i), parent: g}
		s.fn = s.run
		s.done = s.complete
		s.args = make([]server.Arg, 0, 4)
		g.slots[i] = s
		g.free = append(g.free, int32(maxSlots-1-i))
	}
	return g
}

// run is the slot's transaction body, built once per slot.
func (s *slot) run(tx doppel.Tx) error {
	if s.id == 0 {
		return s.parent.wl.body(tx, s)
	}
	t0 := now()
	err := s.parent.wl.body(tx, s)
	s.parent.tr.add(span{start: t0, end: now(), id: s.id, name: spanBody})
	return err
}

// complete is the slot's ExecAsync callback; it runs on a database
// worker goroutine and must not block.
func (s *slot) complete(err error) {
	s.end = now()
	s.err = err
	s.parent.comp <- s.idx
}

func (g *gen) take() *slot {
	if len(g.free) == 0 {
		return nil
	}
	i := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	return g.slots[i]
}

func (g *gen) issue(s *slot, start int64) {
	s.start = start
	s.err = nil
	s.val = 0
	s.id = 0
	if g.tracing {
		g.nextID++
		s.id = g.nextID
	}
	g.out++
	s.sent = now()
	g.submit(s)
}

// fill tops up the closed window and issues every open-loop operation
// that has come due.
func (g *gen) fill(t int64) {
	for g.closedOut < g.window {
		s := g.take()
		if s == nil {
			return
		}
		s.open = false
		g.wl.closedOp(s, g.rng)
		g.closedOut++
		g.issue(s, now())
	}
	for g.openEvery > 0 && g.nextDue <= t {
		s := g.take()
		if s == nil {
			return
		}
		s.open = true
		g.wl.openOp(s, g.rng)
		due := g.nextDue
		g.nextDue += g.openEvery
		g.issue(s, due)
	}
}

func (g *gen) finish(s *slot) {
	g.out--
	if !s.open {
		g.closedOut--
	}
	rec := g.rec
	lat := s.end - s.start
	if s.err == nil && s.kind == opRead {
		if err := g.wl.checkRead(s); err != nil {
			s.err = err
		}
	}
	if s.err != nil {
		g.opErrs++
		if len(g.errSample) < 5 {
			g.errSample = append(g.errSample, s.err)
		}
	} else if s.kind == opWrite {
		if g.dropAcks > 0 {
			g.dropAcks--
		} else {
			g.ackedWrites++
		}
	}
	if rec != nil {
		if s.err != nil {
			rec.failed++
		} else {
			rec.acked++
			if s.kind == opWrite {
				rec.writes = append(rec.writes, sample(lat))
			} else {
				rec.reads = append(rec.reads, sample(lat))
			}
			if s.open {
				rec.late = append(rec.late, sample(s.sent-s.start))
			}
		}
	}
	if s.id != 0 {
		tag := uint8(s.kind)
		if s.cross {
			tag |= tagCross
		}
		g.tr.add(span{start: s.start, end: s.end, id: s.id, name: spanRoot, tag: tag})
	}
	g.free = append(g.free, s.idx)
}

func (g *gen) finishCall(c *server.Call) {
	i, _ := c.Args[0].Int64() // the submitter put the slot index first
	s := g.slots[i]
	s.end = now()
	s.err = c.Err
	if c.Err == nil {
		s.val, _ = c.Reply.Int64()
	}
	g.finish(s)
}

// loop generates load until the monotonic clock reaches stopAt.
func (g *gen) loop(stopAt int64) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		t := now()
		if t >= stopAt {
			return
		}
		if g.rec != nil && t >= g.rec.nextMark() {
			g.rec.mark(t)
		}
		g.fill(t)
		select {
		case i := <-g.comp:
			g.finish(g.slots[i])
			continue
		case c := <-g.calls:
			g.finishCall(c)
			continue
		default:
		}
		wake := stopAt
		if g.openEvery > 0 && g.nextDue < wake {
			wake = g.nextDue
		}
		if g.rec != nil {
			wake = min(wake, g.rec.nextMark())
		}
		if d := wake - now(); d > 0 {
			timer.Reset(time.Duration(d))
			select {
			case i := <-g.comp:
				g.finish(g.slots[i])
			case c := <-g.calls:
				g.finishCall(c)
			case <-timer.C:
			}
		}
	}
}

// measure runs one window with r recording acknowledgements.
func (g *gen) measure(r *recorder, d time.Duration) {
	if g.nextDue == 0 {
		g.nextDue = now()
	}
	g.rec = r
	t0 := now()
	r.mark(t0)
	g.loop(t0 + int64(d))
	r.mark(now())
	g.rec = nil
}

// errDrainTimeout reports in-flight requests that never completed.
var errDrainTimeout = errors.New("in-flight requests did not complete")

// drain stops issuing and waits for every in-flight request, including
// open-loop reads stashed until the next joined phase. The database must
// not be closed before this returns: closing with a stashed transaction
// pending does not return (see README.md, "Known program defect").
func (g *gen) drain(limit time.Duration) error {
	deadline := time.NewTimer(limit)
	defer deadline.Stop()
	for g.out > 0 {
		select {
		case i := <-g.comp:
			g.finish(g.slots[i])
		case c := <-g.calls:
			g.finishCall(c)
		case <-deadline.C:
			return fmt.Errorf("%w: %d still pending after %v", errDrainTimeout, g.out, limit)
		}
	}
	return nil
}

// percentile returns the exact nearest-rank q-quantile of v (sorted in
// place), or 0 when v is empty.
func percentile[T int64 | uint32](v []T, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !slices.IsSorted(v) {
		slices.Sort(v)
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return float64(v[max(0, min(i, len(v)-1))])
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
