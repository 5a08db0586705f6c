package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// errApplyStale reports a fence-protocol invariant violation: a fenced
// record's value changed between prepare validation and the commit-stage
// apply. With fences on, this cannot happen by construction — every
// committer and the reconciliation-aware prepare yield to the fence — so
// a sighting is a bug, counted in CrossShardApplyLost.
var errApplyStale = errors.New("router: fenced record changed between prepare and apply")

// crossShardBackoff caps the retry backoff between 2PC rounds.
const crossShardBackoff = time.Millisecond

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

// gatherTx implements engine.Tx for the gather stage of the cross-shard
// protocol: reads dispatch to the owning shard, writes buffer. It is
// not concurrency-safe; each cross-shard transaction owns one.
type gatherTx struct {
	r      *Router
	ctx    context.Context
	reads  []gatherRead
	writes []gatherWrite
	// readIdx indexes reads by key so load is O(1) per access instead of
	// a linear scan (which made large gathers O(n²)).
	readIdx map[string]int
	// infra is the first shard-dispatch failure (shard closed, context
	// cancelled). It poisons the rest of the gather run and is what the
	// caller gets, even if the body swallows the error it was handed.
	infra error

	// Per-shard grouping scratch, rebuilt by group() each commit round
	// and reused across rounds so retries stay allocation-bounded:
	// shardIDs lists the touched shards ascending; readsBy/writesBy hold
	// the read/write sets regrouped by shard, delimited by the offset
	// arrays (readOff/writeOff have len(shardIDs)+1 entries).
	shardIDs []int
	readsBy  []gatherRead
	writesBy []gatherWrite
	readOff  []int
	writeOff []int
}

func (g *gatherTx) reset() {
	g.reads = g.reads[:0]
	g.writes = g.writes[:0]
	if g.readIdx == nil {
		g.readIdx = make(map[string]int, 8)
	} else {
		clear(g.readIdx)
	}
	g.infra = nil
}

// load returns key's value as this transaction sees it: the gathered
// shard value (fetched on first access, then reused) with this
// transaction's own buffered writes overlaid, so reads-after-writes
// behave as in a single-shard transaction.
func (g *gatherTx) load(key string) (*store.Value, error) {
	if g.infra != nil {
		return nil, g.infra
	}
	var base *store.Value
	if i, ok := g.readIdx[key]; ok {
		base = g.reads[i].val
	} else {
		shard := g.r.ShardOf(key)
		var v *store.Value
		err := g.r.shards[shard].ExecContext(g.ctx, func(tx engine.Tx) error {
			got, err := tx.Get(key)
			v = got
			return err
		})
		if err != nil {
			g.infra = err
			return nil, err
		}
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

// update buffers a splittable operation. It reads the target first —
// recording it in the read set — so type mismatches surface here, at
// gather, the way the embedded joined-phase path surfaces them at
// execution rather than commit. That read is also what makes the
// commit-stage replay type-safe by construction: prepare revalidates
// the value the operation was type-checked against, so a validated
// round cannot hit an Apply type error at apply time.
func (g *gatherTx) update(key string, op store.Op) error {
	cur, err := g.load(key)
	if err != nil {
		return err
	}
	if _, err := store.Apply(cur, op); err != nil {
		return err
	}
	g.writes = append(g.writes, gatherWrite{shard: g.r.ShardOf(key), key: key, op: op})
	return nil
}

func (g *gatherTx) Get(key string) (*store.Value, error)          { return g.load(key) }
func (g *gatherTx) GetForUpdate(key string) (*store.Value, error) { return g.load(key) }

func (g *gatherTx) GetInt(key string) (int64, error) {
	v, err := g.load(key)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

func (g *gatherTx) GetIntForUpdate(key string) (int64, error) { return g.GetInt(key) }

func (g *gatherTx) GetBytes(key string) ([]byte, error) {
	v, err := g.load(key)
	if err != nil {
		return nil, err
	}
	return v.AsBytes()
}

func (g *gatherTx) GetTuple(key string) (store.Tuple, bool, error) {
	v, err := g.load(key)
	if err != nil {
		return store.Tuple{}, false, err
	}
	return v.AsTuple()
}

func (g *gatherTx) GetTopK(key string) ([]store.TopKEntry, error) {
	v, err := g.load(key)
	if err != nil {
		return nil, err
	}
	t, err := v.AsTopK()
	if err != nil {
		return nil, err
	}
	return t.Entries(), nil
}

func (g *gatherTx) Put(key string, v *store.Value) error {
	if g.infra != nil {
		return g.infra
	}
	g.writes = append(g.writes, gatherWrite{
		shard: g.r.ShardOf(key), key: key, op: store.Op{Kind: store.OpPut, Val: v},
	})
	return nil
}

func (g *gatherTx) PutInt(key string, n int64) error { return g.Put(key, store.IntValue(n)) }
func (g *gatherTx) PutBytes(key string, b []byte) error {
	return g.Put(key, store.BytesValue(b))
}

func (g *gatherTx) Add(key string, n int64) error {
	return g.update(key, store.Op{Kind: store.OpAdd, Int: n})
}

func (g *gatherTx) Max(key string, n int64) error {
	return g.update(key, store.Op{Kind: store.OpMax, Int: n})
}

func (g *gatherTx) Min(key string, n int64) error {
	return g.update(key, store.Op{Kind: store.OpMin, Int: n})
}

func (g *gatherTx) Mult(key string, n int64) error {
	return g.update(key, store.Op{Kind: store.OpMult, Int: n})
}

func (g *gatherTx) OPut(key string, order store.Order, data []byte) error {
	return g.update(key, store.Op{
		Kind:  store.OpOPut,
		Tuple: store.Tuple{Order: order, Data: data},
	})
}

func (g *gatherTx) TopKInsert(key string, order int64, data []byte, k int) error {
	return g.update(key, store.Op{
		Kind:  store.OpTopKInsert,
		Entry: store.TopKEntry{Order: order, Data: data},
		K:     k,
	})
}

// WorkerID returns -1: a cross-shard transaction has no single
// executing worker.
func (g *gatherTx) WorkerID() int { return -1 }

// group rebuilds the per-shard view of the gathered read and write sets
// into the reused scratch: shardIDs (sorted ascending — the lock
// acquisition order) plus the regrouped slices served by shardReads and
// shardWrites. One call per commit round replaces the per-stage
// slice-building the old prepare/apply did (three fresh allocations per
// shard per round).
func (g *gatherTx) group() {
	g.shardIDs = g.shardIDs[:0]
	addShard := func(s int) {
		for _, have := range g.shardIDs {
			if have == s {
				return
			}
		}
		g.shardIDs = append(g.shardIDs, s)
	}
	for i := range g.reads {
		addShard(g.reads[i].shard)
	}
	for i := range g.writes {
		addShard(g.writes[i].shard)
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

// execCross runs fn through the cross-shard protocol: gather, then
// prepare+commit under the shard locks, retrying the whole round while
// prepare finds stale reads or foreign fences.
func (r *Router) execCross(ctx context.Context, fn engine.TxFunc) error {
	g := &gatherTx{r: r, ctx: ctx}
	backoff := 2 * time.Microsecond
	for {
		g.reset()
		err := fn(g)
		if g.infra != nil {
			return g.infra
		}
		if err != nil {
			r.stats.CrossShardAborts.Add(1)
			return err
		}
		committed, err := r.tryCommit(g)
		if err != nil {
			return err
		}
		if committed {
			r.stats.CrossShard.Add(1)
			return nil
		}
		r.stats.CrossShardRetries.Add(1)
		// Jittered backoff: sleep a uniform duration in [backoff/2,
		// backoff] so transactions contending on the same keys spread out
		// instead of retrying in lockstep at the 1ms cap forever.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		if backoff < crossShardBackoff {
			backoff *= 2
		}
	}
}

// tryCommit runs one prepare+commit round under the shard locks.
// committed=false with a nil error means prepare found a stale read, a
// foreign fence, or split data; the caller retries from gather.
func (r *Router) tryCommit(g *gatherTx) (committed bool, err error) {
	g.group()
	if len(g.shardIDs) == 0 {
		return true, nil // read nothing, wrote nothing
	}
	for _, s := range g.shardIDs {
		r.locks[s].Lock()
	}
	defer func() {
		for i := len(g.shardIDs) - 1; i >= 0; i-- {
			r.locks[g.shardIDs[i]].Unlock()
		}
	}()
	var tok uint64
	if !r.NoFences {
		tok = r.fenceSeq.Add(1)
		// Fences release on every exit — stale retry, infra error, and
		// commit alike — before the shard locks do, so a failed round can
		// never strand a key fenced.
		defer r.unfenceAll(g, tok)
	}
	ok, err := r.prepare(g, tok)
	if err != nil || !ok {
		return false, err
	}
	return true, r.apply(g, tok)
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
// foreign fences, and split keys alike.
func (r *Router) prepare(g *gatherTx, tok uint64) (bool, error) {
	if tok != 0 {
		fenced := 0
		for si, s := range g.shardIDs {
			st := r.shards[s].Store()
			for _, rd := range g.shardReads(si) {
				rec, _ := st.GetOrCreate(rd.key)
				if !rec.Fence(tok) {
					return false, nil // another cross-shard commit owns it
				}
				fenced++
			}
			for _, wr := range g.shardWrites(si) {
				rec, _ := st.GetOrCreate(wr.key)
				if !rec.Fence(tok) {
					return false, nil
				}
				fenced++
			}
		}
		r.stats.FencedKeys.Add(uint64(fenced))
		for si, s := range g.shardIDs {
			sh := r.shards[s]
			for _, rd := range g.shardReads(si) {
				if sh.SplitActive(rd.key) {
					return false, nil
				}
			}
			for _, wr := range g.shardWrites(si) {
				if sh.SplitActive(wr.key) {
					return false, nil
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
				return false, nil
			}
		}
	}
	return true, nil
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
// Fan-out uses ExecAsync so shards apply concurrently. A revalidation
// mismatch inside apply is a fence-protocol invariant violation
// (errApplyStale), counted in CrossShardApplyLost.
func (r *Router) apply(g *gatherTx, tok uint64) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for si, s := range g.shardIDs {
		writes := g.shardWrites(si)
		if len(writes) == 0 {
			continue
		}
		reads := g.shardReads(si)
		shard := s
		wg.Add(1)
		r.shards[s].ExecAsync(func(tx engine.Tx) error {
			if tok != 0 {
				if ft, ok := tx.(engine.FenceTx); ok {
					ft.SetFenceToken(tok)
				}
			}
			for _, rd := range reads {
				cur, err := tx.Get(rd.key)
				if err != nil {
					return err
				}
				if !cur.Equal(rd.val) {
					return errApplyStale
				}
			}
			return replayOps(tx, writes)
		}, func(err error) {
			if err != nil {
				r.stats.CrossShardApplyLost.Add(1)
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("router: cross-shard commit applied partially (shard %d failed): %w", shard, err)
				}
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait()
	return first
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

// replayOps applies buffered writes through the shard's own transaction
// interface, preserving operation kinds: an Add replays as Add, so the
// shard may split the record and the operation still commutes with
// concurrent single-shard traffic.
func replayOps(tx engine.Tx, writes []gatherWrite) error {
	for _, w := range writes {
		var err error
		switch w.op.Kind {
		case store.OpPut:
			err = tx.Put(w.key, w.op.Val)
		case store.OpAdd:
			err = tx.Add(w.key, w.op.Int)
		case store.OpMax:
			err = tx.Max(w.key, w.op.Int)
		case store.OpMin:
			err = tx.Min(w.key, w.op.Int)
		case store.OpMult:
			err = tx.Mult(w.key, w.op.Int)
		case store.OpOPut:
			err = tx.OPut(w.key, w.op.Tuple.Order, w.op.Tuple.Data)
		case store.OpTopKInsert:
			err = tx.TopKInsert(w.key, w.op.Entry.Order, w.op.Entry.Data, w.op.K)
		default:
			err = fmt.Errorf("router: cannot replay op kind %v", w.op.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
