package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// errApplyStale reports a fence-protocol invariant violation: a fenced
// record's value changed between prepare validation and the commit-stage
// apply. With fences on, this cannot happen by construction — every
// committer and the reconciliation-aware prepare yield to the fence — so
// a sighting is a bug, counted in CrossShardApplyLost.
var errApplyStale = errors.New("router: fenced record changed between prepare and apply")

// gatherRead is one entry of the cross-shard read set: the value the
// body observed, pre-overlay, exactly as prepare must revalidate it.
type gatherRead struct {
	shard int
	key   string
	val   *store.Value
}

// gatherWrite is one buffered write, tagged with its owning shard.
type gatherWrite struct {
	shard int
	key   string
	op    store.Op
}

// crossCall is the pooled frame of one cross-shard transaction, the
// counterpart of routedCall. It owns the gather transaction with all of
// its scratch, the gather-read body, one apply body and completion per
// shard, and the commit fan-out's WaitGroup and first error. All of
// them are built once, when the frame is first pooled, and reused, so
// a cross-shard commit adds no allocation of its own in steady state.
//
// Ownership: a shard may run the frame's bodies until it reports their
// completion. apply waits for every completion, but a gather read whose
// caller gave up on a cancelled context stays with its shard, so a
// frame whose run ends on a context error is abandoned to the GC and
// never pooled (execCross).
type crossCall struct {
	r  *Router
	fn engine.TxFunc
	g  gatherTx

	done     func(error) // the async caller's callback
	runAsync func()      // cc.execAsync, bound once for finishAsync's go statement

	tok     uint64       // the commit round's fence token
	applies []shardApply // per shard ID
	wg      sync.WaitGroup
	mu      sync.Mutex // guards first among concurrent completions
	first   error
}

func newCrossCall(r *Router) *crossCall {
	cc := &crossCall{r: r, applies: make([]shardApply, len(r.shards))}
	cc.g = gatherTx{r: r, readIdx: make(map[string]int, 8)}
	cc.g.readBody = cc.g.readShard
	cc.runAsync = cc.execAsync
	for s := range cc.applies {
		a := &cc.applies[s]
		a.cc, a.shard = cc, s
		a.body, a.complete = a.run, a.finish
	}
	return cc
}

// execAsync is the body of the goroutine finishAsync starts for a
// rerouted ExecAsync transaction. Its context never ends, so no gather
// read is abandoned and the frame always goes back to the pool.
//
//doppel:hotpath
func (cc *crossCall) execAsync() {
	err := cc.run(context.Background())
	done := cc.done
	cc.release()
	done(err)
}

func (cc *crossCall) release() {
	cc.fn, cc.done = nil, nil
	cc.g.release()
	cc.r.crosses.Put(cc)
}

// shardApply is one shard's commit-stage transaction in a crossCall:
// apply points reads and writes at the shard's grouped sets before
// each fan-out, and body and complete are bound once.
type shardApply struct {
	cc       *crossCall
	shard    int
	reads    []gatherRead
	writes   []gatherWrite
	body     engine.TxFunc // a.run
	complete func(error)   // a.finish
}

// run revalidates the shard's gathered reads and replays its writes as
// the owner of the round's fences. The writes replay through the
// shard's own Write with their kinds intact: an Add replays as Add, so
// the shard may split the record and the operation still commutes with
// concurrent single-shard traffic.
//
//doppel:hotpath
func (a *shardApply) run(tx engine.Tx) error {
	ops := engine.OpsOf(tx)
	if tok := a.cc.tok; tok != 0 {
		if ft, ok := ops.(engine.FenceTx); ok {
			ft.SetFenceToken(tok)
		}
	}
	for _, rd := range a.reads {
		cur, err := ops.Read(rd.key, false)
		if err != nil {
			return err
		}
		if !cur.Equal(rd.val) {
			return errApplyStale
		}
	}
	for _, w := range a.writes {
		if err := ops.Write(w.key, w.op); err != nil {
			return err
		}
	}
	return nil
}

// finish is the shard's completion: it records the first failure and
// releases apply's wait. wg.Done is its last touch of the frame.
//
//doppel:hotpath
func (a *shardApply) finish(err error) {
	cc := a.cc
	if err != nil {
		cc.r.stats.CrossShardApplyLost.Add(1)
		cc.mu.Lock()
		if cc.first == nil {
			cc.first = fmt.Errorf("router: cross-shard commit applied partially (shard %d failed): %w", a.shard, err)
		}
		cc.mu.Unlock()
	}
	cc.wg.Done()
}

// gatherTx implements engine.Ops for the gather stage of the cross-shard
// protocol: reads dispatch to the owning shard, writes buffer. It is
// not concurrency-safe; each crossCall owns one and reuses it.
type gatherTx struct {
	r      *Router
	ctx    context.Context
	reads  []gatherRead
	writes []gatherWrite
	// readIdx indexes reads by key so Read is O(1) per access instead of
	// a linear scan (which made large gathers O(n²)).
	readIdx map[string]int
	// infra is the first shard-dispatch failure (shard closed, context
	// cancelled). It poisons the rest of the gather run and is what the
	// caller gets, even if the body swallows the error it was handed.
	infra error

	// The gather read's shard body (readShard, bound once) takes its
	// key from readKey and leaves the value in readVal.
	readKey  string
	readVal  *store.Value
	readBody engine.TxFunc

	// Per-shard grouping scratch, rebuilt by group() each commit round
	// and reused across rounds and transactions: shardIDs lists the
	// touched shards ascending; readsBy/writesBy hold the read/write
	// sets regrouped by shard, delimited by the offset arrays
	// (readOff/writeOff have len(shardIDs)+1 entries).
	shardIDs []int
	readsBy  []gatherRead
	writesBy []gatherWrite
	readOff  []int
	writeOff []int
}

// reset empties the read and write sets for a new gather run. Clearing
// the entries before truncating drops their keys and values, which a
// pooled frame would otherwise keep alive.
func (g *gatherTx) reset() {
	clear(g.reads)
	g.reads = g.reads[:0]
	clear(g.writes)
	g.writes = g.writes[:0]
	clear(g.readIdx)
	g.infra = nil
}

// release empties g, grouping scratch included, before its frame goes
// back to the pool.
func (g *gatherTx) release() {
	g.reset()
	clear(g.readsBy)
	clear(g.writesBy)
	g.ctx, g.readKey, g.readVal = nil, "", nil
}

// readShard is the gather read's shard transaction.
//
//doppel:hotpath
func (g *gatherTx) readShard(tx engine.Tx) error {
	v, err := tx.Get(g.readKey)
	g.readVal = v
	return err
}

// Read implements engine.Ops: key's value as this transaction sees it,
// the gathered shard value (fetched on first access, then reused) with
// this transaction's own buffered writes overlaid, so reads-after-writes
// behave as in a single-shard transaction.
//
//doppel:hotpath
func (g *gatherTx) Read(key string, _ bool) (*store.Value, error) {
	if g.infra != nil {
		return nil, g.infra
	}
	var base *store.Value
	if i, ok := g.readIdx[key]; ok {
		base = g.reads[i].val
	} else {
		shard := g.r.ShardOf(key)
		g.readKey = key
		if err := g.r.shards[shard].ExecContext(g.ctx, g.readBody); err != nil {
			g.infra = err
			return nil, err
		}
		v := g.readVal
		g.readIdx[key] = len(g.reads)
		g.reads = append(g.reads, gatherRead{shard: shard, key: key, val: v})
		base = v
	}
	for i := range g.writes {
		if g.writes[i].key == key {
			nv, err := store.Apply(base, g.writes[i].op)
			if err != nil {
				return nil, err
			}
			base = nv
		}
	}
	return base, nil
}

// Write implements engine.Ops by buffering op. A Put is blind. A
// splittable operation reads its target first — recording it in the
// read set — so a type mismatch surfaces here, at gather, the way the
// embedded joined-phase path surfaces it at execution rather than
// commit. That read is also what makes the commit-stage replay
// type-safe by construction: prepare revalidates the value the
// operation was type-checked against, so a validated round cannot hit
// an Apply type error at apply time.
//
//doppel:hotpath
func (g *gatherTx) Write(key string, op store.Op) error {
	if op.Kind.Splittable() {
		cur, err := g.Read(key, false)
		if err != nil {
			return err
		}
		if err := store.Check(cur, op); err != nil {
			return err
		}
	} else if g.infra != nil {
		return g.infra
	}
	g.writes = append(g.writes, gatherWrite{shard: g.r.ShardOf(key), key: key, op: op})
	return nil
}

// WorkerID implements engine.Ops with -1: a cross-shard transaction has
// no single executing worker.
func (g *gatherTx) WorkerID() int { return -1 }

// group rebuilds the per-shard view of the gathered read and write sets
// into the reused scratch: shardIDs (sorted ascending — the lock
// acquisition order) plus the regrouped slices served by shardReads and
// shardWrites. One call per commit round; once the frame's scratch has
// grown to the transaction's size it allocates nothing.
//
//doppel:hotpath
func (g *gatherTx) group() {
	g.shardIDs = g.shardIDs[:0]
	for i := range g.reads {
		g.addShard(g.reads[i].shard)
	}
	for i := range g.writes {
		g.addShard(g.writes[i].shard)
	}
	sort.Ints(g.shardIDs)
	g.readsBy = g.readsBy[:0]
	g.writesBy = g.writesBy[:0]
	g.readOff = g.readOff[:0]
	g.writeOff = g.writeOff[:0]
	for _, s := range g.shardIDs {
		g.readOff = append(g.readOff, len(g.readsBy))
		for i := range g.reads {
			if g.reads[i].shard == s {
				g.readsBy = append(g.readsBy, g.reads[i])
			}
		}
		g.writeOff = append(g.writeOff, len(g.writesBy))
		for i := range g.writes {
			if g.writes[i].shard == s {
				g.writesBy = append(g.writesBy, g.writes[i])
			}
		}
	}
	g.readOff = append(g.readOff, len(g.readsBy))
	g.writeOff = append(g.writeOff, len(g.writesBy))
}

// addShard adds s to shardIDs unless it is there already.
func (g *gatherTx) addShard(s int) {
	for _, have := range g.shardIDs {
		if have == s {
			return
		}
	}
	g.shardIDs = append(g.shardIDs, s)
}

// shardReads returns the reads on g.shardIDs[i], grouped by group().
// Writes within a shard keep their buffered order, which replay relies
// on for multiple operations against one key.
func (g *gatherTx) shardReads(i int) []gatherRead {
	return g.readsBy[g.readOff[i]:g.readOff[i+1]]
}

// shardWrites returns the writes on g.shardIDs[i], grouped by group().
func (g *gatherTx) shardWrites(i int) []gatherWrite {
	return g.writesBy[g.writeOff[i]:g.writeOff[i+1]]
}

// execCross runs fn through the cross-shard protocol on a pooled
// frame. A run that ends on a context error may have left a gather read
// queued on its shard, still bound to the frame, so that frame is
// abandoned to the GC instead of pooled.
func (r *Router) execCross(ctx context.Context, fn engine.TxFunc) error {
	cc := r.crosses.Get().(*crossCall)
	cc.fn = fn
	err := cc.run(ctx)
	if isContextErr(err) {
		return err
	}
	cc.release()
	return err
}

// isContextErr reports whether err is a context's cancellation or
// deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// run executes cc.fn through the cross-shard protocol: gather, then
// prepare+commit under the shard locks. A refused round re-gathers at
// once: a gather read of split data stashes on its shard until the
// joined phase, so a split key the body never read (a blind Put's) is
// read here first.
func (cc *crossCall) run(ctx context.Context) error {
	r, g := cc.r, &cc.g
	g.ctx = ctx
	for {
		g.reset()
		err := cc.fn(engine.NewTx(g))
		if g.infra != nil {
			return g.infra
		}
		if err != nil {
			r.stats.CrossShardAborts.Add(1)
			return err
		}
		committed, split, err := r.tryCommit(cc)
		if err != nil {
			return err
		}
		if committed {
			r.stats.CrossShard.Add(1)
			return nil
		}
		r.stats.CrossShardRetries.Add(1)
		if _, read := g.readIdx[split]; split != "" && !read {
			if _, err := g.Read(split, false); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// tryCommit runs one prepare+commit round of cc's gathered transaction
// under the shard locks. committed=false with a nil error means prepare
// found a stale read, a foreign fence, or split data (split then names
// the key); the caller retries from gather. After Close, a round fails
// with the closing error before it fences anything.
func (r *Router) tryCommit(cc *crossCall) (committed bool, split string, err error) {
	g := &cc.g
	g.group()
	if len(g.shardIDs) == 0 {
		return true, "", nil // read nothing, wrote nothing
	}
	for _, s := range g.shardIDs {
		r.locks[s].Lock()
	}
	defer func() {
		for i := len(g.shardIDs) - 1; i >= 0; i-- {
			r.locks[g.shardIDs[i]].Unlock()
		}
	}()
	if r.closed != nil {
		return false, "", r.closed
	}
	var tok uint64
	if !r.noFences {
		tok = r.fenceSeq.Add(1)
		// Fences release on every exit — stale retry, infra error, and
		// commit alike — before the shard locks do, so a failed round can
		// never strand a key fenced.
		defer r.unfenceAll(g, tok)
	}
	ok, split, err := r.prepare(g, tok)
	if err != nil || !ok {
		return false, split, err
	}
	return true, "", r.apply(cc, tok)
}

// prepare validates the round under the shard commit locks. With fences
// on it installs the per-key commit fence on every touched record
// first, then revalidates each gathered read against the record's
// current value, taken under the record's commit lock. The lock is what
// orders fence publication against in-flight single-shard committers:
// a committer checks fences while holding (writes) or validating
// (reads) the same records, so either it finished first — and the
// snapshot read here sees its installed value, failing validation — or
// the fence is visible to it and it yields. After a read validates with
// its fence up, the record cannot change until apply: every write path
// (OCC committers, routed transactions, drain replays) aborts on a
// foreign fence.
//
// A key that is currently split data is treated as stale even if its
// global record matches: the record then lags the per-core slices, and
// reconciliation merges them without fence checks. The classifier never
// splits a fenced key, so retrying is enough to get ahead of it.
//
// prepare returns ok=false (retry from gather) for stale values,
// foreign fences, and split keys alike; split names a split key.
func (r *Router) prepare(g *gatherTx, tok uint64) (ok bool, split string, err error) {
	if tok != 0 {
		fenced := 0
		for si, s := range g.shardIDs {
			st := r.shards[s].Store()
			for _, rd := range g.shardReads(si) {
				rec, _ := st.GetOrCreate(rd.key)
				if !rec.Fence(tok) {
					return false, "", nil // another cross-shard commit owns it
				}
				fenced++
			}
			for _, wr := range g.shardWrites(si) {
				rec, _ := st.GetOrCreate(wr.key)
				if !rec.Fence(tok) {
					return false, "", nil
				}
				fenced++
			}
		}
		r.stats.FencedKeys.Add(uint64(fenced))
		for si, s := range g.shardIDs {
			sh := r.shards[s]
			for _, rd := range g.shardReads(si) {
				if sh.SplitActive(rd.key) {
					return false, rd.key, nil
				}
			}
			for _, wr := range g.shardWrites(si) {
				if sh.SplitActive(wr.key) {
					return false, wr.key, nil
				}
			}
		}
	}
	for si, s := range g.shardIDs {
		st := r.shards[s].Store()
		for _, rd := range g.shardReads(si) {
			rec, _ := st.GetOrCreate(rd.key)
			// Take the snapshot under the record lock rather than with
			// ReadConsistent: a committer that got past its fence check
			// holds this lock until its value is installed, and the
			// validation must see that value to vote stale.
			rec.Lock()
			cur := rec.Value()
			rec.Unlock()
			if !cur.Equal(rd.val) {
				return false, "", nil
			}
		}
	}
	return true, "", nil
}

// apply commits the buffered writes: one shard transaction per shard
// with writes, each revalidating that shard's gathered reads and
// replaying its writes — so per shard, validate+write is a single
// atomic OCC commit. The transaction identifies itself as the fence
// owner (engine.FenceTx), passing the fence checks everyone else aborts
// on. Shards the transaction only read are fully validated at prepare
// and stay fenced until every apply lands, which is what makes the
// whole commit atomic to observers: a reader that validates all fences
// clear either ran wholly before prepare or wholly after the last
// apply.
//
// Fan-out uses ExecAsync with the frame's bound per-shard bodies and
// completions, so shards apply concurrently, and apply returns only
// after every shard has completed. A revalidation mismatch inside apply
// is a fence-protocol invariant violation (errApplyStale), counted in
// CrossShardApplyLost.
//
//doppel:hotpath
func (r *Router) apply(cc *crossCall, tok uint64) error {
	g := &cc.g
	cc.tok, cc.first = tok, nil
	for si, s := range g.shardIDs {
		writes := g.shardWrites(si)
		if len(writes) == 0 {
			continue
		}
		a := &cc.applies[s]
		a.reads, a.writes = g.shardReads(si), writes
		cc.wg.Add(1)
		r.shards[s].ExecAsync(a.body, a.complete)
	}
	cc.wg.Wait()
	return cc.first
}

// unfenceAll releases this round's fences. Unfence is token-guarded, so
// keys the round never got to fence (an early stale exit) and keys
// fenced by another transaction are untouched, and double releases are
// no-ops — the caller may call it unconditionally on every exit path.
// Each shard's workers are woken after its fences are down: requests
// that aborted on them are parked until that wake.
func (r *Router) unfenceAll(g *gatherTx, tok uint64) {
	for si, s := range g.shardIDs {
		sh := r.shards[s]
		st := sh.Store()
		for _, rd := range g.shardReads(si) {
			if rec := st.Get(rd.key); rec != nil {
				rec.Unfence(tok)
			}
		}
		for _, wr := range g.shardWrites(si) {
			if rec := st.Get(wr.key); rec != nil {
				rec.Unfence(tok)
			}
		}
		sh.WakeAll()
	}
}
