package router

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/store"
)

// fakeShard is the smallest Shard the router can run on: a one-worker
// core.DB driven from the caller's goroutine, one transaction at a
// time. Phases move only when a test asks (PhaseLength 0), except that
// a transaction that stashes ends the split phase at once so its replay
// can finish.
type fakeShard struct {
	mu    sync.Mutex
	db    *core.DB
	execs int // shard transactions run, gathers and applies included
}

func newFakeShard() *fakeShard {
	cfg := core.DefaultConfig(1)
	cfg.PhaseLength = 0
	return &fakeShard{db: core.Open(store.New(), cfg)}
}

func (f *fakeShard) ExecContext(ctx context.Context, fn engine.TxFunc) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.execs++
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := f.db.Attempt(0, fn, engine.Now())
		switch out {
		case engine.Committed:
			return nil
		case engine.UserAbort:
			return err
		case engine.Stashed:
			// Attempt drops the replay's own error.
			f.db.RequestJoinedPhase()
			for f.db.StashLen(0) > 0 {
				f.db.Poll(0)
				runtime.Gosched()
			}
			return nil
		default: // Aborted, AbortedFenced, Paused
			f.db.Poll(0)
			runtime.Gosched()
		}
	}
}

func (f *fakeShard) ExecAsync(fn engine.TxFunc, done func(error)) {
	done(f.ExecContext(context.Background(), fn))
}

func (f *fakeShard) Store() *store.Store         { return f.db.Store() }
func (f *fakeShard) SplitActive(key string) bool { return f.db.SplitActive(key) }
func (f *fakeShard) WakeAll()                    { f.db.WakeAll() }

func (f *fakeShard) execCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs
}

// split starts a split phase with key in the split set.
func (f *fakeShard) split(t *testing.T, key string) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.SplitHint(key, store.OpAdd)
	if !f.db.RequestSplitPhase() {
		t.Fatalf("no split phase for %q", key)
	}
	for f.db.Phase() != core.PhaseSplit {
		f.db.Poll(0)
	}
	if !f.db.SplitActive(key) {
		t.Fatalf("%q is not split", key)
	}
}

// join ends a split phase.
func (f *fakeShard) join() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.RequestJoinedPhase()
	for f.db.Phase() != core.PhaseJoined {
		f.db.Poll(0)
	}
}

func (f *fakeShard) value(t *testing.T, key string) int64 {
	t.Helper()
	rec := f.db.Store().Get(key)
	if rec == nil {
		t.Fatalf("%q has no record", key)
	}
	n, err := rec.Value().AsInt()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// newTestRouter builds a router over two fake shards.
func newTestRouter(t *testing.T) (*Router, [2]*fakeShard) {
	t.Helper()
	fakes := [2]*fakeShard{newFakeShard(), newFakeShard()}
	for _, f := range fakes {
		t.Cleanup(f.db.Close)
	}
	return New([]Shard{fakes[0], fakes[1]}, nil, nil), fakes
}

// keyOn returns a key owned by shard.
func keyOn(r *Router, shard int, prefix string) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s-%d", prefix, i); r.ShardOf(k) == shard {
			return k
		}
	}
}

// seed writes n to key through the router.
func seed(t *testing.T, r *Router, key string, n int64) {
	t.Helper()
	if err := r.ExecContext(context.Background(), func(tx engine.Tx) error {
		return tx.PutInt(key, n)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteByFirstKey(t *testing.T) {
	r, fakes := newTestRouter(t)
	for shard := range fakes {
		k := keyOn(r, shard, "route")
		before := [2]int{fakes[0].execCount(), fakes[1].execCount()}
		if err := r.ExecContext(context.Background(), func(tx engine.Tx) error {
			return tx.Add(k, 1)
		}); err != nil {
			t.Fatal(err)
		}
		for s, f := range fakes {
			want := before[s]
			if s == shard {
				want++
			}
			if got := f.execCount(); got != want {
				t.Errorf("Add(%s): shard %d ran %d transactions, want %d", k, s, got, want)
			}
		}
		if got := fakes[shard].value(t, k); got != 1 {
			t.Errorf("%s = %d, want 1", k, got)
		}
	}
	if st := r.Stats(); st.SingleShard != 2 || st.Reroutes != 0 || st.CrossShard != 0 {
		t.Errorf("stats %+v, want 2 single-shard commits and nothing else", st)
	}
}

// TestForeignAccessVetoedInto2PC: a foreign write, a write after a
// foreign read and a foreign read after a write all abandon the home
// attempt and commit through 2PC; none takes the in-place read path.
func TestForeignAccessVetoedInto2PC(t *testing.T) {
	cases := map[string]func(a, b string) engine.TxFunc{
		"foreign write": func(a, b string) engine.TxFunc {
			return func(tx engine.Tx) error {
				if err := tx.Add(a, 1); err != nil {
					return err
				}
				return tx.Add(b, 1)
			}
		},
		"write after foreign read": func(a, b string) engine.TxFunc {
			return func(tx engine.Tx) error {
				y, err := tx.GetInt(b)
				if err != nil {
					return err
				}
				return tx.PutInt(a, y+1)
			}
		},
		"foreign read after write": func(a, b string) engine.TxFunc {
			return func(tx engine.Tx) error {
				if err := tx.PutInt(a, 1); err != nil {
					return err
				}
				y, err := tx.GetInt(b)
				if err != nil {
					return err
				}
				return tx.PutInt(a, y+1)
			}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			r, fakes := newTestRouter(t)
			a, b := keyOn(r, 0, "a"), keyOn(r, 1, "b")
			seed(t, r, a, 0)
			seed(t, r, b, 0)
			if err := r.ExecContext(context.Background(), func(tx engine.Tx) error {
				// The probe must see a first, so the attempt runs on shard 0.
				if _, err := tx.GetInt(a); err != nil {
					return err
				}
				return mk(a, b)(tx)
			}); err != nil {
				t.Fatal(err)
			}
			if got := fakes[0].value(t, a); got != 1 {
				t.Errorf("%s = %d, want 1", a, got)
			}
			st := r.Stats()
			if st.Reroutes != 1 || st.CrossShard != 1 || st.CrossShardReadOnly != 0 {
				t.Errorf("stats %+v, want one reroute into one 2PC commit", st)
			}
		})
	}
}

// TestForeignReadInPlace: a read-only transaction over two shards
// commits on its first key's shard, reads the other shard's keys
// without running a transaction there, and counts CrossShardReadOnly —
// through ExecContext and ExecAsync alike, and for an absent key too.
func TestForeignReadInPlace(t *testing.T) {
	r, fakes := newTestRouter(t)
	a, b, missing := keyOn(r, 0, "a"), keyOn(r, 1, "b"), keyOn(r, 1, "missing")
	seed(t, r, a, 5)
	seed(t, r, b, 7)
	var sum int64
	fn := func(tx engine.Tx) error {
		x, err := tx.GetInt(a)
		if err != nil {
			return err
		}
		y, err := tx.GetInt(b)
		if err != nil {
			return err
		}
		z, err := tx.GetInt(missing)
		if err != nil {
			return err
		}
		sum = x + y + z
		return nil
	}
	before := fakes[1].execCount()
	if err := r.ExecContext(context.Background(), fn); err != nil {
		t.Fatal(err)
	}
	if sum != 12 {
		t.Errorf("ExecContext read %d, want 12", sum)
	}
	sum = 0
	done := make(chan error, 1)
	r.ExecAsync(fn, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sum != 12 {
		t.Errorf("ExecAsync read %d, want 12", sum)
	}
	if n := fakes[1].execCount() - before; n != 0 {
		t.Errorf("shard 1 ran %d transactions for in-place reads, want 0", n)
	}
	st := r.Stats()
	if st.CrossShardReadOnly != 2 || st.Reroutes != 0 || st.CrossShard != 0 {
		t.Errorf("stats %+v, want two in-place read-only commits and no 2PC", st)
	}
}

// TestForeignReadValidation spoils an in-place foreign read after the
// read and before the home commit — a newer TID, a held record lock, a
// live commit fence, the key turned into split data — or before the
// read (split data). Each must fail the in-place path and commit
// through 2PC with the value current at that point.
func TestForeignReadValidation(t *testing.T) {
	type spoiler struct {
		before bool                                       // spoil before the read, not after
		spoil  func(t *testing.T, f *fakeShard, b string) // the attempt's foreign read goes stale
		repair func(f *fakeShard, b string)               // run at the start of the 2PC gather
		want   int64                                      // b's value after spoil
	}
	put := func(t *testing.T, f *fakeShard, b string, n int64) {
		if err := f.ExecContext(context.Background(), func(tx engine.Tx) error { return tx.PutInt(b, n) }); err != nil {
			t.Fatal(err)
		}
	}
	const tok = 1 << 60
	cases := map[string]spoiler{
		"changed TID": {
			spoil: func(t *testing.T, f *fakeShard, b string) { put(t, f, b, 100) },
			want:  100,
		},
		"locked record": {
			spoil:  func(_ *testing.T, f *fakeShard, b string) { f.Store().Get(b).Lock() },
			repair: func(f *fakeShard, b string) { f.Store().Get(b).Unlock() },
			want:   7,
		},
		"live fence": {
			spoil:  func(_ *testing.T, f *fakeShard, b string) { f.Store().Get(b).Fence(tok) },
			repair: func(f *fakeShard, b string) { f.Store().Get(b).Unfence(tok) },
			want:   7,
		},
		"split key": {
			spoil:  func(t *testing.T, f *fakeShard, b string) { f.split(t, b) },
			repair: func(f *fakeShard, _ string) { f.join() },
			want:   7,
		},
		"split before read": {
			before: true,
			spoil:  func(t *testing.T, f *fakeShard, b string) { f.split(t, b) },
			want:   7,
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r, fakes := newTestRouter(t)
			a, b := keyOn(r, 0, "a"), keyOn(r, 1, "b")
			seed(t, r, a, 5)
			seed(t, r, b, 7)
			if c.before {
				c.spoil(t, fakes[1], b)
			}
			var spoiled, repaired bool
			var got int64
			err := r.ExecContext(context.Background(), func(tx engine.Tx) error {
				x, err := tx.GetInt(a)
				if err != nil {
					return err
				}
				if _, ok := tx.(*gatherTx); ok && !repaired && c.repair != nil {
					repaired = true
					c.repair(fakes[1], b)
				}
				y, err := tx.GetInt(b)
				if err != nil {
					return err
				}
				if _, ok := tx.(*checkTx); ok && !spoiled && !c.before {
					spoiled = true
					c.spoil(t, fakes[1], b)
				}
				got = x + y
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := 5 + c.want; got != want {
				t.Errorf("read %d, want %d", got, want)
			}
			st := r.Stats()
			if st.Reroutes != 1 || st.CrossShard != 1 || st.CrossShardReadOnly != 0 {
				t.Errorf("stats %+v, want one reroute into one 2PC commit", st)
			}
		})
	}
}

// TestPrepareRejectsStaleGather: a single-shard write landing between a
// cross-shard gather and its prepare makes the round fail without
// effects or stranded fences; a fresh gather then commits.
func TestPrepareRejectsStaleGather(t *testing.T) {
	r, fakes := newTestRouter(t)
	a, b := keyOn(r, 0, "a"), keyOn(r, 1, "b")
	seed(t, r, a, 5)
	seed(t, r, b, 7)
	transfer := func(tx engine.Tx) error {
		x, err := tx.GetInt(a)
		if err != nil {
			return err
		}
		y, err := tx.GetInt(b)
		if err != nil {
			return err
		}
		if err := tx.PutInt(a, x-1); err != nil {
			return err
		}
		return tx.PutInt(b, y+1)
	}
	g := &gatherTx{r: r, ctx: context.Background()}
	g.reset()
	if err := transfer(g); err != nil {
		t.Fatal(err)
	}
	seed(t, r, b, 50)
	committed, err := r.tryCommit(g)
	if err != nil || committed {
		t.Fatalf("tryCommit over a stale gather = %v, %v; want false, nil", committed, err)
	}
	for s, k := range []string{a, b} {
		if tok := fakes[s].Store().Get(k).FenceToken(); tok != 0 {
			t.Errorf("%s still fenced (%d) after a failed prepare", k, tok)
		}
	}
	if x, y := fakes[0].value(t, a), fakes[1].value(t, b); x != 5 || y != 50 {
		t.Errorf("failed round had effects: %s=%d %s=%d, want 5 and 50", a, x, b, y)
	}
	g.reset()
	if err := transfer(g); err != nil {
		t.Fatal(err)
	}
	if committed, err := r.tryCommit(g); err != nil || !committed {
		t.Fatalf("tryCommit over a fresh gather = %v, %v; want true, nil", committed, err)
	}
	if x, y := fakes[0].value(t, a), fakes[1].value(t, b); x != 4 || y != 51 {
		t.Errorf("after commit %s=%d %s=%d, want 4 and 51", a, x, b, y)
	}
}
