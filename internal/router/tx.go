package router

import (
	"errors"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// routedCall is the pooled per-transaction routing frame. Its run and
// complete closures and checkTx are built once, when the frame is first
// pooled, so the single-shard fast path performs no allocation per
// transaction: route() only rewrites fields of an existing frame.
//
// Ownership: between route() and the shard's completion callback the
// executing worker may read and write the frame (through run/check), so
// the submitter must not touch it until the shard reports completion —
// and must abandon it entirely if it stops waiting early (see
// Router.ExecContext's cancellation path).
type routedCall struct {
	r     *Router
	fn    engine.TxFunc
	shard int
	probe probeTx
	check checkTx
	run   engine.TxFunc

	done     func(error) // ExecAsync's caller callback
	complete func(error) // rc.finishAsync, bound once
}

func newRoutedCall(r *Router) *routedCall {
	rc := &routedCall{r: r}
	rc.run = func(tx engine.Tx) error {
		rc.check.reset(rc.r, engine.OpsOf(tx), rc.shard)
		err := rc.fn(engine.NewTx(&rc.check))
		if rc.check.foreign {
			return errCrossShard
		}
		return err
	}
	rc.complete = rc.finishAsync
	return rc
}

// finishAsync is the shard completion callback of Router.ExecAsync: it
// releases the frame and reports the outcome. A body that turned out to
// span shards, or whose in-place foreign reads no longer validate, is
// re-executed through the cross-shard protocol on a fresh goroutine, so
// the shard worker that detected it is never captured. The goroutine
// runs a pooled crossCall's bound execAsync, so starting it allocates
// no closure.
//
//doppel:hotpath
func (rc *routedCall) finishAsync(err error) {
	r, fn, done := rc.r, rc.fn, rc.done
	crossed, foreign := rc.outcome(err)
	rc.release()
	switch {
	case err == nil && !foreign:
		r.countCommit(crossed)
		done(nil)
	case errors.Is(err, errCrossShard) || foreign:
		r.stats.Reroutes.Add(1)
		cc := r.crosses.Get().(*crossCall)
		cc.fn, cc.done = fn, done
		go cc.runAsync()
	default:
		done(err)
	}
}

// outcome reads the finished attempt's routing result before the frame
// is released: crossed reports that it read other shards' keys in
// place, foreign that it must re-run through 2PC — because it vetoed
// itself, or because it committed on its home shard (err == nil) but a
// foreign read no longer validates.
func (rc *routedCall) outcome(err error) (crossed, foreign bool) {
	c := &rc.check
	crossed = len(c.reads) > 0
	foreign = c.foreign || (err == nil && crossed && !c.validate())
	return crossed, foreign
}

// route binds fn to the frame and picks its candidate shard from the
// body's first operation (shard 0 for a body that performs none).
//
//doppel:hotpath
func (rc *routedCall) route(fn engine.TxFunc) int {
	rc.fn = fn
	rc.probe.reset()
	rc.check.foreign = false
	_ = fn(engine.NewTx(&rc.probe)) // the probe error is the mechanism, not a failure
	shard := 0
	if rc.probe.has {
		shard = rc.r.ShardOf(rc.probe.key)
	}
	rc.shard = shard
	return shard
}

func (rc *routedCall) release() {
	rc.fn, rc.done = nil, nil
	rc.check.inner = nil
	rc.r.calls.Put(rc)
}

// errProbe is returned by every probeTx operation so the body stops
// after revealing its first key. Bodies are pure functions of what they
// read (the engine.TxFunc contract), so aborting the probe run has no
// effect and the error never escapes to the caller.
var errProbe = errors.New("router: probe")

// probeTx implements engine.Ops by recording the first key accessed and
// failing every operation.
type probeTx struct {
	has bool
	key string
}

func (p *probeTx) reset() { p.has, p.key = false, "" }

func (p *probeTx) note(key string) error {
	if !p.has {
		p.has, p.key = true, key
	}
	return errProbe
}

func (p *probeTx) Read(key string, _ bool) (*store.Value, error) { return nil, p.note(key) }
func (p *probeTx) Write(key string, _ store.Op) error            { return p.note(key) }
func (p *probeTx) WorkerID() int                                 { return -1 }

// readSpins bounds how long an in-place foreign read waits for a locked
// record before giving up on the attempt (the shard engines use the
// same bound for their own reads).
const readSpins = 128

// foreignRead is one in-place read of a key another shard owns: the
// record and the TID the read observed. The router re-checks it with
// unchanged once the home shard has committed the attempt.
type foreignRead struct {
	shard int
	key   string
	rec   *store.Record
	tid   uint64
}

// checkTx wraps a shard's engine.Ops. Operations on the attempt's own
// shard pass through. A read of another shard's key is served in place
// (readForeign) while the attempt has written nothing; any other
// foreign access — a foreign write, a write after a foreign read, a
// foreign read after a write, or a foreign read that cannot be taken
// cleanly — sets foreign and starves the body with errCrossShard.
// Whether or not that error makes it back through the engine (core's
// Attempt drops a stash replay's), the router reads foreign afterwards.
type checkTx struct {
	r       *Router
	inner   engine.Ops
	shard   int
	foreign bool
	wrote   bool
	// reads is the attempt's in-place foreign read set, reused across
	// attempts with the pooled frame.
	reads []foreignRead
}

func (c *checkTx) reset(r *Router, inner engine.Ops, shard int) {
	c.r, c.inner, c.shard, c.foreign, c.wrote = r, inner, shard, false, false
	c.reads = c.reads[:0]
}

// Read implements engine.Ops: a read of a home-shard key goes to the
// home shard's transaction, a foreign one is served in place or vetoes
// the attempt.
//
//doppel:hotpath
func (c *checkTx) Read(key string, forUpdate bool) (*store.Value, error) {
	if c.foreign {
		return nil, errCrossShard
	}
	shard := c.r.ShardOf(key)
	if shard == c.shard {
		return c.inner.Read(key, forUpdate)
	}
	if !c.wrote {
		if v, ok := c.readForeign(shard, key); ok {
			return v, nil
		}
	}
	c.foreign = true
	return nil, errCrossShard
}

// Write implements engine.Ops: a write of a home-shard key, before any
// foreign read, goes to the home shard's transaction; any other write
// vetoes the attempt.
//
//doppel:hotpath
func (c *checkTx) Write(key string, op store.Op) error {
	if c.foreign {
		return errCrossShard
	}
	if len(c.reads) > 0 || c.r.ShardOf(key) != c.shard {
		c.foreign = true
		return errCrossShard
	}
	c.wrote = true
	return c.inner.Write(key, op)
}

// WorkerID implements engine.Ops.
func (c *checkTx) WorkerID() int { return c.inner.WorkerID() }

// readForeign reads key on its owning shard without a shard
// transaction: a Silo consistent read of the record (created if
// absent, so a missing key still has a TID to validate), checked at
// once with the same unchanged test the router repeats after the home
// commit. A record that stays locked, carries a commit fence or is
// split data fails the read, and the attempt goes through 2PC instead.
func (c *checkTx) readForeign(shard int, key string) (*store.Value, bool) {
	rec, _ := c.r.shards[shard].Store().GetOrCreate(key)
	v, tid, ok := rec.ReadConsistent(readSpins)
	if !ok {
		return nil, false
	}
	rd := foreignRead{shard: shard, key: key, rec: rec, tid: tid}
	if !c.r.unchanged(&rd) {
		return nil, false
	}
	c.reads = append(c.reads, rd)
	return v, true
}

// validate reports whether every in-place foreign read still holds. It
// runs after the home shard committed the attempt; see doc.go for why a
// read set that passes is serializable at the home commit.
func (c *checkTx) validate() bool {
	for i := range c.reads {
		if !c.r.unchanged(&c.reads[i]) {
			return false
		}
	}
	return true
}

// unchanged reports whether rd's record still holds the value the read
// observed, with no cross-shard commit in progress on it and no split
// phase hiding writes from it. The order of the checks matters: the
// fence and split checks come first, so the TID check after them also
// catches an apply or a reconciliation that finished between the read
// and those checks.
func (r *Router) unchanged(rd *foreignRead) bool {
	if rd.rec.FenceToken() != 0 || r.shards[rd.shard].SplitActive(rd.key) {
		return false
	}
	tid, locked := rd.rec.TIDWord()
	return !locked && tid == rd.tid
}
