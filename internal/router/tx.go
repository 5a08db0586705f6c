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
		rc.check.reset(rc.r, tx, rc.shard)
		err := rc.fn(&rc.check)
		if rc.check.foreign {
			return errCrossShard
		}
		return err
	}
	rc.complete = rc.finishAsync
	return rc
}

// finishAsync is the shard completion callback of Router.ExecAsync: it
// releases the frame and reports the outcome, re-executing a body that
// turned out to span shards through the cross-shard protocol on a fresh
// goroutine, so the shard worker that detected it is never captured.
//
//doppel:hotpath
func (rc *routedCall) finishAsync(err error) {
	r, fn, done, foreign := rc.r, rc.fn, rc.done, rc.check.foreign
	rc.release()
	switch {
	case err == nil && !foreign:
		r.stats.SingleShard.Add(1)
		done(nil)
	case errors.Is(err, errCrossShard) || foreign:
		r.stats.Reroutes.Add(1)
		go r.execCrossAsync(fn, done)
	default:
		done(err)
	}
}

// route binds fn to the frame and picks its candidate shard from the
// body's first operation (shard 0 for a body that performs none).
//
//doppel:hotpath
func (rc *routedCall) route(fn engine.TxFunc) int {
	rc.fn = fn
	rc.probe.reset()
	rc.check.foreign = false
	_ = fn(&rc.probe) // the probe error is the mechanism, not a failure
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

// probeTx implements engine.Tx by recording the first key accessed and
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

func (p *probeTx) Get(key string) (*store.Value, error)          { return nil, p.note(key) }
func (p *probeTx) GetForUpdate(key string) (*store.Value, error) { return nil, p.note(key) }
func (p *probeTx) GetInt(key string) (int64, error)              { return 0, p.note(key) }
func (p *probeTx) GetIntForUpdate(key string) (int64, error)     { return 0, p.note(key) }
func (p *probeTx) GetBytes(key string) ([]byte, error)           { return nil, p.note(key) }
func (p *probeTx) GetTuple(key string) (store.Tuple, bool, error) {
	return store.Tuple{}, false, p.note(key)
}
func (p *probeTx) GetTopK(key string) ([]store.TopKEntry, error) { return nil, p.note(key) }

func (p *probeTx) Put(key string, v *store.Value) error { return p.note(key) }
func (p *probeTx) PutInt(key string, n int64) error     { return p.note(key) }
func (p *probeTx) PutBytes(key string, b []byte) error  { return p.note(key) }

func (p *probeTx) Add(key string, n int64) error  { return p.note(key) }
func (p *probeTx) Max(key string, n int64) error  { return p.note(key) }
func (p *probeTx) Min(key string, n int64) error  { return p.note(key) }
func (p *probeTx) Mult(key string, n int64) error { return p.note(key) }
func (p *probeTx) OPut(key string, order store.Order, data []byte) error {
	return p.note(key)
}
func (p *probeTx) TopKInsert(key string, order int64, data []byte, k int) error {
	return p.note(key)
}

func (p *probeTx) WorkerID() int { return -1 }

// checkTx wraps a shard's engine.Tx, vetoing any operation whose key
// another shard owns. The veto sets foreign and starves the body with
// errCrossShard; whether that error makes it back through the engine or
// is swallowed by a stash drain, the router reads foreign afterwards.
type checkTx struct {
	r       *Router
	inner   engine.Tx
	shard   int
	foreign bool
}

func (c *checkTx) reset(r *Router, inner engine.Tx, shard int) {
	c.r, c.inner, c.shard, c.foreign = r, inner, shard, false
}

func (c *checkTx) ok(key string) bool {
	if c.foreign {
		return false
	}
	if c.r.ShardOf(key) != c.shard {
		c.foreign = true
		return false
	}
	return true
}

func (c *checkTx) Get(key string) (*store.Value, error) {
	if !c.ok(key) {
		return nil, errCrossShard
	}
	return c.inner.Get(key)
}

func (c *checkTx) GetForUpdate(key string) (*store.Value, error) {
	if !c.ok(key) {
		return nil, errCrossShard
	}
	return c.inner.GetForUpdate(key)
}

func (c *checkTx) GetInt(key string) (int64, error) {
	if !c.ok(key) {
		return 0, errCrossShard
	}
	return c.inner.GetInt(key)
}

func (c *checkTx) GetIntForUpdate(key string) (int64, error) {
	if !c.ok(key) {
		return 0, errCrossShard
	}
	return c.inner.GetIntForUpdate(key)
}

func (c *checkTx) GetBytes(key string) ([]byte, error) {
	if !c.ok(key) {
		return nil, errCrossShard
	}
	return c.inner.GetBytes(key)
}

func (c *checkTx) GetTuple(key string) (store.Tuple, bool, error) {
	if !c.ok(key) {
		return store.Tuple{}, false, errCrossShard
	}
	return c.inner.GetTuple(key)
}

func (c *checkTx) GetTopK(key string) ([]store.TopKEntry, error) {
	if !c.ok(key) {
		return nil, errCrossShard
	}
	return c.inner.GetTopK(key)
}

func (c *checkTx) Put(key string, v *store.Value) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.Put(key, v)
}

func (c *checkTx) PutInt(key string, n int64) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.PutInt(key, n)
}

func (c *checkTx) PutBytes(key string, b []byte) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.PutBytes(key, b)
}

func (c *checkTx) Add(key string, n int64) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.Add(key, n)
}

func (c *checkTx) Max(key string, n int64) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.Max(key, n)
}

func (c *checkTx) Min(key string, n int64) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.Min(key, n)
}

func (c *checkTx) Mult(key string, n int64) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.Mult(key, n)
}

func (c *checkTx) OPut(key string, order store.Order, data []byte) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.OPut(key, order, data)
}

func (c *checkTx) TopKInsert(key string, order int64, data []byte, k int) error {
	if !c.ok(key) {
		return errCrossShard
	}
	return c.inner.TopKInsert(key, order, data, k)
}

func (c *checkTx) WorkerID() int { return c.inner.WorkerID() }
