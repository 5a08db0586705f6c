package doppel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"doppel/internal/store"
)

// crossPair returns two keys from pool owned by different shards.
func crossPair(t *testing.T, cl *Cluster, pool []string) (string, string) {
	t.Helper()
	for _, a := range pool {
		for _, b := range pool {
			if cl.ShardOf(a) != cl.ShardOf(b) {
				return a, b
			}
		}
	}
	t.Fatal("no cross-shard pair in key pool")
	return "", ""
}

// TestClusterRoutesAndCounts commits one single-shard and one
// cross-shard transaction and checks the router accounted for both: the
// cross-shard body is first attempted on one shard, found foreign
// (a reroute), then committed via 2PC.
func TestClusterRoutesAndCounts(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{Shards: 3, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pool := make([]string, 16)
	for i := range pool {
		pool[i] = fmt.Sprintf("key-%d", i)
	}
	k1, k2 := crossPair(t, cl, pool)

	if err := cl.Exec(func(tx Tx) error { return tx.Add(k1, 5) }); err != nil {
		t.Fatal(err)
	}
	err = cl.Exec(func(tx Tx) error {
		if err := tx.Add(k1, 1); err != nil {
			return err
		}
		return tx.Add(k2, 2)
	})
	if err != nil {
		t.Fatal(err)
	}

	for key, want := range map[string]int64{k1: 6, k2: 2} {
		var got int64
		if err := cl.Exec(func(tx Tx) error {
			n, err := tx.GetInt(key)
			got = n
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	rs := cl.Stats().Router
	if rs.SingleShard == 0 {
		t.Error("no single-shard commits counted")
	}
	if rs.Reroutes == 0 || rs.CrossShard == 0 {
		t.Errorf("router stats %+v: cross-shard transaction not counted", rs)
	}
}

// equivOp is one step of the randomized equivalence workload, built
// once and replayed identically against a cluster and a single DB.
type equivOp struct {
	kind   int // 0 add, 1 max, 2 min, 3 mult, 4 putint, 5 putbytes, 6 cross read-write
	k1, k2 string
	n      int64
}

func (o equivOp) fn() TxFunc {
	switch o.kind {
	case 0:
		return func(tx Tx) error { return tx.Add(o.k1, o.n) }
	case 1:
		return func(tx Tx) error { return tx.Max(o.k1, o.n) }
	case 2:
		return func(tx Tx) error { return tx.Min(o.k1, o.n) }
	case 3:
		return func(tx Tx) error { return tx.Mult(o.k1, o.n) }
	case 4:
		return func(tx Tx) error { return tx.PutInt(o.k1, o.n) }
	case 5:
		return func(tx Tx) error {
			return tx.PutBytes(o.k1, []byte(fmt.Sprintf("v%d", o.n)))
		}
	default:
		// Cross-shard read-then-write: the amount added to k2 depends on
		// the gathered read of k1, exercising 2PC's read validation.
		return func(tx Tx) error {
			n, err := tx.GetInt(o.k1)
			if err != nil {
				return err
			}
			return tx.Add(o.k2, n%5+o.n)
		}
	}
}

// TestClusterSingleDBEquivalence replays one randomized mixed workload
// — including deliberately cross-shard read-write transactions —
// sequentially against a 3-shard cluster and an embedded single DB, and
// requires the final states to be identical key for key.
func TestClusterSingleDBEquivalence(t *testing.T) {
	mk := func() Options {
		o := Options{Workers: 2, PhaseLength: 5 * time.Millisecond}
		// Keep reads direct: auto-split would stash reads and make the
		// moment a value becomes visible phase-dependent.
		o.Engine.DisableAutoSplit = true
		return o
	}
	cl, err := OpenCluster(ClusterOptions{Shards: 3, DB: mk()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	single := Open(mk())
	defer single.Close()

	intKeys := make([]string, 12)
	for i := range intKeys {
		intKeys[i] = fmt.Sprintf("int-%d", i)
	}
	byteKeys := make([]string, 6)
	for i := range byteKeys {
		byteKeys[i] = fmt.Sprintf("byte-%d", i)
	}

	r := rand.New(rand.NewSource(42))
	var ops []equivOp
	for _, k := range intKeys { // seed so reads always see an integer
		ops = append(ops, equivOp{kind: 4, k1: k, n: 0})
	}
	for i := 0; i < 400; i++ {
		kind := r.Intn(7)
		op := equivOp{kind: kind, n: int64(r.Intn(40) - 10)}
		switch kind {
		case 5:
			op.k1 = byteKeys[r.Intn(len(byteKeys))]
		case 6:
			op.k1 = intKeys[r.Intn(len(intKeys))]
			op.k2 = intKeys[r.Intn(len(intKeys))]
			for cl.ShardOf(op.k2) == cl.ShardOf(op.k1) {
				op.k2 = intKeys[r.Intn(len(intKeys))]
			}
		default:
			op.k1 = intKeys[r.Intn(len(intKeys))]
			if op.kind == 3 && op.n == 0 {
				op.n = 2 // a zero mult erases history on both, trivially equal
			}
		}
		ops = append(ops, op)
	}

	for i, op := range ops {
		if err := cl.Exec(op.fn()); err != nil {
			t.Fatalf("op %d on cluster: %v", i, err)
		}
		if err := single.Exec(op.fn()); err != nil {
			t.Fatalf("op %d on single DB: %v", i, err)
		}
	}

	for _, k := range intKeys {
		var cn, sn int64
		if err := cl.Exec(func(tx Tx) error { n, err := tx.GetInt(k); cn = n; return err }); err != nil {
			t.Fatal(err)
		}
		if err := single.Exec(func(tx Tx) error { n, err := tx.GetInt(k); sn = n; return err }); err != nil {
			t.Fatal(err)
		}
		if cn != sn {
			t.Errorf("%s: cluster %d, single %d", k, cn, sn)
		}
	}
	for _, k := range byteKeys {
		var cb, sb []byte
		if err := cl.Exec(func(tx Tx) error { b, err := tx.GetBytes(k); cb = b; return err }); err != nil {
			t.Fatal(err)
		}
		if err := single.Exec(func(tx Tx) error { b, err := tx.GetBytes(k); sb = b; return err }); err != nil {
			t.Fatal(err)
		}
		if string(cb) != string(sb) {
			t.Errorf("%s: cluster %q, single %q", k, cb, sb)
		}
	}
	if rs := cl.Stats().Router; rs.CrossShard == 0 {
		t.Errorf("router stats %+v: workload never exercised 2PC", rs)
	}
}

// TestClusterConcurrentConservation hammers the cluster with concurrent
// single-shard and cross-shard double-adds and checks conservation:
// every committed add is reflected exactly once, so the keyspace total
// equals the number of adds issued. Run under -race this also exercises
// the 2PC lock ordering and the pooled router frames concurrently.
func TestClusterConcurrentConservation(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{
		Shards: 3,
		DB:     Options{Workers: 2, PhaseLength: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pool := make([]string, 12)
	for i := range pool {
		pool[i] = fmt.Sprintf("cons-%d", i)
	}
	k1, k2 := crossPair(t, cl, pool)

	const goroutines = 8
	const perG = 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var fn TxFunc
				if i%3 == 0 {
					fn = func(tx Tx) error { // cross-shard: two adds, one txn
						if err := tx.Add(k1, 1); err != nil {
							return err
						}
						return tx.Add(k2, 1)
					}
				} else {
					k := pool[(g+i)%len(pool)]
					fn = func(tx Tx) error { return tx.Add(k, 2) }
				}
				if err := cl.Exec(fn); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every i%3==0 iteration adds 1+1, the rest add 2: 2 per iteration.
	want := int64(goroutines * perG * 2)
	var total int64
	for _, k := range pool {
		if err := cl.Exec(func(tx Tx) error {
			n, err := tx.GetInt(k)
			total += n
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total != want {
		t.Fatalf("keyspace total %d, want %d", total, want)
	}
	if rs := cl.Stats().Router; rs.CrossShard == 0 {
		t.Errorf("router stats %+v: no cross-shard commits", rs)
	}
}

// TestClusterDurableRoundTrip writes through a durable cluster —
// including a cross-shard transaction — closes it, and recovers a new
// cluster from the per-shard directories.
func TestClusterDurableRoundTrip(t *testing.T) {
	tmpl := filepath.Join(t.TempDir(), "shard-%d")
	const shards = 3
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(fmt.Sprintf(tmpl, i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := OpenCluster(ClusterOptions{
		Shards: shards,
		DB:     Options{Workers: 1, RedoLog: tmpl},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]string, 8)
	for i := range pool {
		pool[i] = fmt.Sprintf("dur-%d", i)
	}
	k1, k2 := crossPair(t, cl, pool)
	if err := cl.Exec(func(tx Tx) error { return tx.PutInt(k1, 40) }); err != nil {
		t.Fatal(err)
	}
	if err := cl.Exec(func(tx Tx) error {
		if err := tx.Add(k1, 2); err != nil {
			return err
		}
		return tx.PutBytes(k2, []byte("crossed"))
	}); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	cl2, err := RecoverCluster(tmpl, ClusterOptions{Shards: shards, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	var n int64
	var b []byte
	if err := cl2.Exec(func(tx Tx) error {
		var err error
		n, err = tx.GetInt(k1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Exec(func(tx Tx) error {
		var err error
		b, err = tx.GetBytes(k2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 42 || string(b) != "crossed" {
		t.Fatalf("recovered %s=%d %s=%q, want 42 and \"crossed\"", k1, n, k2, b)
	}
}

// TestClusterOptionsRejected covers the ClusterOptions validation
// surface: geometry, templates, and per-shard option violations.
func TestClusterOptionsRejected(t *testing.T) {
	if _, err := OpenCluster(ClusterOptions{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := OpenCluster(ClusterOptions{Shards: 300}); err == nil {
		t.Error("Shards beyond the TID namespace accepted")
	}
	if _, err := OpenCluster(ClusterOptions{
		Shards: 2,
		DB:     Options{RedoLog: filepath.Join(t.TempDir(), "flat")},
	}); err == nil {
		t.Error("cluster RedoLog template missing the verb was accepted")
	}
	if _, err := OpenCluster(ClusterOptions{
		Shards: 2,
		DB:     Options{SyncCommit: true},
	}); !errors.Is(err, ErrRequiresRedoLog) {
		t.Errorf("per-shard option violation = %v, want ErrRequiresRedoLog", err)
	}
	if _, err := RecoverCluster(t.TempDir(), ClusterOptions{Shards: 2}); err == nil {
		t.Error("RecoverCluster dir template missing the verb was accepted")
	}
}

// TestClusterClosedSentinel: every cluster entry point after Close must
// match ErrClosed, exactly as the single-DB surface does.
func TestClusterClosedSentinel(t *testing.T) {
	tmpl := filepath.Join(t.TempDir(), "shard-%d")
	cl, err := OpenCluster(ClusterOptions{
		Shards: 2,
		DB:     Options{Workers: 1, RedoLog: tmpl},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	noop := func(tx Tx) error { return nil }
	if err := cl.Exec(noop); !errors.Is(err, ErrClosed) {
		t.Errorf("Exec after Close = %v, want ErrClosed", err)
	}
	if err := cl.ExecContext(context.Background(), noop); !errors.Is(err, ErrClosed) {
		t.Errorf("ExecContext after Close = %v, want ErrClosed", err)
	}
	got := make(chan error, 1)
	cl.ExecAsync(noop, func(err error) { got <- err })
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Errorf("ExecAsync after Close = %v, want ErrClosed", err)
	}
	if err := cl.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close = %v, want ErrClosed", err)
	}
}

// TestClusterStashedExecReturnsReplayError: a single-shard body that
// stashes on its shard reports its replay's outcome through
// Cluster.Exec. A body that reads the split key and then fails must
// return its own error, not be counted and acknowledged as a commit.
func TestClusterStashedExecReturnsReplayError(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{
		Shards: 2,
		DB:     Options{Workers: 2, PhaseLength: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SplitHint("hot", OpAdd)
	shard := cl.ShardOf("hot")
	boom := errors.New("boom")
	readThenFail := func(tx Tx) error {
		if _, err := tx.GetInt("hot"); err != nil {
			return err
		}
		return boom
	}
	var adds uint64
	deadline := time.Now().Add(10 * time.Second)
	for cl.Stats().Shards[shard].Stashed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read of the hinted key ever stashed")
		}
		if err := cl.Exec(func(tx Tx) error { return tx.Add("hot", 1) }); err != nil {
			t.Fatal(err)
		}
		adds++
		if err := cl.Exec(readThenFail); !errors.Is(err, boom) {
			t.Fatalf("Exec returned %v, want the body's error", err)
		}
	}
	if n := cl.Stats().Router.SingleShard; n != adds {
		t.Fatalf("router counted %d single-shard commits, want the %d Adds", n, adds)
	}
}

// TestClusterExecContextCancel parks the owning shard's only worker and
// cancels a queued cluster transaction: the router must surface the
// context error and abandon (not corrupt) its pooled call frame.
func TestClusterExecContextCancel(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const key = "cancel-me"
	shard := cl.ShardOf(key)
	started := make(chan struct{})
	release := make(chan struct{})
	cl.DB(shard).ExecAsync(func(tx Tx) error {
		close(started)
		<-release
		return nil
	}, func(error) {})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- cl.ExecContext(ctx, func(tx Tx) error { return tx.Add(key, 1) })
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ExecContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecContext did not return after cancellation")
	}
	close(release)
	// The router must remain usable: the abandoned frame must not poison
	// the pool once the worker finally drains.
	if err := cl.Exec(func(tx Tx) error { return tx.Add("other", 1) }); err != nil {
		t.Fatal(err)
	}
}

// TestClusterStampsTIDDomainCoreID: OPut and TopKInsert on a shard-1
// key store the executing worker's TID-domain ID as their core ID —
// shard 1's only worker is 1, not its local index 0 — whether they run
// single-shard or replay on the shard through 2PC, so ordered-put
// tie-breaking agrees across the shards of a cluster.
func TestClusterStampsTIDDomainCoreID(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const want = 1 // OpenCluster gives shard i the IDs from i*Workers
	home := keyOnShard(cl, 0, "home")
	for _, cross := range []bool{false, true} {
		tup := keyOnShard(cl, 1, fmt.Sprintf("tuple-%v", cross))
		top := keyOnShard(cl, 1, fmt.Sprintf("top-%v", cross))
		if err := cl.Exec(func(tx Tx) error {
			if cross {
				if err := tx.Add(home, 1); err != nil {
					return err
				}
			}
			if err := tx.OPut(tup, Order{A: 1}, []byte("d")); err != nil {
				return err
			}
			return tx.TopKInsert(top, 1, []byte("e"), 4)
		}); err != nil {
			t.Fatal(err)
		}
		var got store.Tuple
		var es []TopKEntry
		if err := cl.Exec(func(tx Tx) error {
			var err error
			if got, _, err = tx.GetTuple(tup); err != nil {
				return err
			}
			es, err = tx.GetTopK(top)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got.CoreID != want || string(got.Data) != "d" {
			t.Errorf("cross=%v: OPut stored %+v, want core ID %d", cross, got, want)
		}
		if len(es) != 1 || es[0].CoreID != want {
			t.Errorf("cross=%v: TopKInsert stored %+v, want one entry with core ID %d", cross, es, want)
		}
	}
	if st := cl.Stats().Router; st.CrossShard != 1 {
		t.Errorf("router stats %+v, want exactly the one 2PC commit", st)
	}
}
