package doppel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppel/internal/engine"
)

// fenceStress races single-shard read-modify-write incrementers against
// cross-shard transfer transactions over one shared key pool and
// returns the final sum of the pool, the expected sum, and the cluster
// stats. Incrementers use GetInt+PutInt — a non-commutative RMW, the
// classic lost-update detector: an increment silently overwritten by a
// cross-shard Put shrinks the final sum. Transfers move an amount
// between two keys on different shards with blind Puts computed from
// gathered reads, conserving the pool's sum — so with both workloads
// racing, sum(pool) == totalIncrements exactly iff no update was lost
// and no transfer applied partially.
func fenceStress(t *testing.T, noFences bool) (got, want int64, stats ClusterStats) {
	t.Helper()
	cl, err := OpenCluster(ClusterOptions{Shards: 3, DB: Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.router.SetNoFencesForTesting(noFences)

	pool := make([]string, 8)
	for i := range pool {
		pool[i] = fmt.Sprintf("fence-key-%d", i)
	}
	// Seed every key so transfers always see integers.
	for _, k := range pool {
		if err := cl.Exec(func(tx Tx) error { return tx.PutInt(k, 0) }); err != nil {
			t.Fatal(err)
		}
	}

	const (
		incrementers  = 4
		incrementsPer = 400
		transferers   = 2
		transfersPer  = 200
	)
	var (
		wg           sync.WaitGroup
		transferErrs atomic.Int64
	)
	for g := 0; g < incrementers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < incrementsPer; i++ {
				k := pool[rng.Intn(len(pool))]
				if err := cl.Exec(func(tx Tx) error {
					n, err := tx.GetInt(k)
					if err != nil {
						return err
					}
					return tx.PutInt(k, n+1)
				}); err != nil {
					t.Errorf("incrementer: %v", err)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < transferers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < transfersPer; i++ {
				a := pool[rng.Intn(len(pool))]
				b := pool[rng.Intn(len(pool))]
				if cl.ShardOf(a) == cl.ShardOf(b) {
					continue
				}
				amt := int64(rng.Intn(3) + 1)
				err := cl.Exec(func(tx Tx) error {
					x, err := tx.GetInt(a)
					if err != nil {
						return err
					}
					y, err := tx.GetInt(b)
					if err != nil {
						return err
					}
					if err := tx.PutInt(a, x-amt); err != nil {
						return err
					}
					return tx.PutInt(b, y+amt)
				})
				if err != nil {
					// Only the unfenced mode may fail a commit (a partial
					// apply surfaces as an error); with fences on this is a
					// test failure, checked by the caller via stats.
					transferErrs.Add(1)
				}
			}
		}(int64(g))
	}
	wg.Wait()

	var sum int64
	for _, k := range pool {
		var n int64
		if err := cl.Exec(func(tx Tx) error {
			v, err := tx.GetInt(k)
			n = v
			return err
		}); err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	stats = cl.Stats()
	if !noFences && transferErrs.Load() != 0 {
		t.Errorf("fenced mode: %d transfers failed; cross-shard commits must not fail with fences on", transferErrs.Load())
	}
	return sum, incrementers * incrementsPer, stats
}

// TestClusterFenceConservation is the race-enabled conservation stress:
// with commit fences on, no single-shard increment may be lost to a
// cross-shard transfer's prepare→apply window, and the
// CrossShardApplyLost invariant counter must stay zero across the whole
// run.
func TestClusterFenceConservation(t *testing.T) {
	got, want, stats := fenceStress(t, false)
	if got != want {
		t.Errorf("conservation violated: pool sums to %d, want %d (lost %d updates)", got, want, want-got)
	}
	if n := stats.Router.CrossShardApplyLost; n != 0 {
		t.Errorf("CrossShardApplyLost = %d, want 0 (fence invariant violated)", n)
	}
	if stats.Router.CrossShard == 0 {
		t.Error("no cross-shard commits: the stress did not exercise 2PC")
	}
	if stats.Router.FencedKeys == 0 {
		t.Error("FencedKeys = 0: prepare installed no fences")
	}
}

// TestClusterFenceDisabledLosesUpdates demonstrates the bug the fences
// close: with NoFences set, the prepare→apply window reopens and the
// same stress loses updates (a shrunken sum, a partial apply counted in
// CrossShardApplyLost, or both). The window is a narrow race, so a run
// that happens not to provoke it skips rather than fails.
func TestClusterFenceDisabledLosesUpdates(t *testing.T) {
	for attempt := 0; attempt < 3; attempt++ {
		got, want, stats := fenceStress(t, true)
		if got != want || stats.Router.CrossShardApplyLost > 0 {
			t.Logf("unfenced run lost updates as expected: sum %d (want %d), apply-lost %d",
				got, want, stats.Router.CrossShardApplyLost)
			return
		}
	}
	t.Skip("unfenced lost-update window not provoked in 3 runs (timing-dependent)")
}

// TestFenceSplitRace stresses the classifier-vs-prepare boundary the
// publication-time fence filter closes: phase changes are forced at
// millisecond cadence while every pool key is simultaneously (a) a
// hinted split candidate hammered with commutative Adds, (b) fenced by
// cross-shard transfers and (c) read in pairs across shards by
// read-only transactions, whose in-place reads meet split keys and
// escalate to 2PC. If a split-set publication ever admits a key holding
// a live fence, reconciliation merges the key's slices inside the
// commit's prepare→apply window — which breaks conservation or trips
// CrossShardApplyLost. Both must stay exact while the shards go through
// fenceSplitPhases phase transitions.
func TestFenceSplitRace(t *testing.T) {
	// fenceSplitPhases is the phase-transition count, summed over the
	// shards, the load runs until; a 10 s deadline bounds the wait.
	const fenceSplitPhases = 2000
	cl, err := OpenCluster(ClusterOptions{
		Shards: 3,
		DB:     Options{Workers: 2, PhaseLength: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pool := make([]string, 8)
	for i := range pool {
		pool[i] = fmt.Sprintf("split-race-%d", i)
		if err := cl.Exec(func(tx Tx) error { return tx.PutInt(pool[i], 0) }); err != nil {
			t.Fatal(err)
		}
		// Every key is a permanent split candidate, so each joined→split
		// transition builds a set containing exactly the keys the
		// transfers are fencing.
		cl.SplitHint(pool[i], OpAdd)
	}
	phaseChanges := func(st ClusterStats) (n uint64) {
		for _, s := range st.Shards {
			n += s.PhaseChanges
		}
		return n
	}
	// crossPick returns two pool keys on different shards.
	crossPick := func(rng *rand.Rand) (string, string) {
		for {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if cl.ShardOf(a) != cl.ShardOf(b) {
				return a, b
			}
		}
	}

	const (
		adders      = 4
		transferers = 2
		readers     = 1
	)
	var (
		wg           sync.WaitGroup
		stop         atomic.Bool
		adds         atomic.Int64
		reads        atomic.Int64
		transferErrs atomic.Int64
	)
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := pool[rng.Intn(len(pool))]
				if err := cl.Exec(func(tx Tx) error { return tx.Add(k, 1) }); err != nil {
					t.Errorf("adder: %v", err)
					return
				}
				adds.Add(1)
			}
		}(int64(g))
	}
	for g := 0; g < transferers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			for !stop.Load() {
				a, b := crossPick(rng)
				amt := int64(rng.Intn(3) + 1)
				err := cl.Exec(func(tx Tx) error {
					x, err := tx.GetInt(a)
					if err != nil {
						return err
					}
					y, err := tx.GetInt(b)
					if err != nil {
						return err
					}
					if err := tx.PutInt(a, x-amt); err != nil {
						return err
					}
					return tx.PutInt(b, y+amt)
				})
				if err != nil {
					transferErrs.Add(1)
				}
			}
		}(int64(g))
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(300 + seed))
			for !stop.Load() {
				a, b := crossPick(rng)
				if err := cl.Exec(func(tx Tx) error {
					if _, err := tx.GetInt(a); err != nil {
						return err
					}
					_, err := tx.GetInt(b)
					return err
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				reads.Add(1)
			}
		}(int64(g))
	}
	deadline := time.Now().Add(10 * time.Second)
	for phaseChanges(cl.Stats()) < fenceSplitPhases && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	var sum int64
	for _, k := range pool {
		if err := cl.Exec(func(tx Tx) error {
			n, err := tx.GetInt(k)
			sum += n
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	stats := cl.Stats()
	t.Logf("%d phase changes, %d adds, %d cross-shard reads; router %+v",
		phaseChanges(stats), adds.Load(), reads.Load(), stats.Router)
	if want := adds.Load(); sum != want {
		t.Errorf("conservation violated across split phases: pool sums to %d, want %d (lost %d)", sum, want, want-sum)
	}
	if n := stats.Router.CrossShardApplyLost; n != 0 {
		t.Errorf("CrossShardApplyLost = %d, want 0 (a fenced key entered a split set)", n)
	}
	if n := transferErrs.Load(); n != 0 {
		t.Errorf("%d cross-shard transfers failed; with fences on every transfer must retry to success", n)
	}
	if n := phaseChanges(stats); n < fenceSplitPhases {
		t.Errorf("%d phase changes before the deadline, want at least %d", n, fenceSplitPhases)
	}
	var mergeFailures uint64
	for _, s := range stats.Shards {
		mergeFailures += s.MergeFailures
	}
	if mergeFailures != 0 {
		t.Errorf("MergeFailures = %d, want 0", mergeFailures)
	}
	if stats.Router.CrossShard == 0 {
		t.Error("no cross-shard commits: the stress did not exercise 2PC")
	}
	if reads.Load() == 0 {
		t.Error("no cross-shard read committed")
	}
}

// keyOnShard returns the first key prefix-N that cl places on shard.
func keyOnShard(cl *Cluster, shard int, prefix string) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s-%d", prefix, i); cl.ShardOf(k) == shard {
			return k
		}
	}
}

// TestClusterCrossShardAuditAtomic is the atomic-visibility stress for
// read-only transactions that read other shards' keys in place.
// Transferers move amounts within cross-shard key pairs through 2PC;
// auditors read a pair in one Exec or ExecAsync and require its sum to
// be unchanged. Half the audits first read an anchor key on a third
// shard, so both pair reads are foreign and only the router's
// validation stands between the audit and a half-applied transfer: a
// missing fence check lets it see one side applied and the other not, a
// missing TID check lets it see a whole transfer land between its two
// reads. The anchor audit yields between the pair reads to widen both
// windows.
func TestClusterCrossShardAuditAtomic(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{Shards: 3, DB: Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const (
		pairsPer     = 2
		initial      = 1000
		transferers  = 3
		transfersPer = 300
		auditors     = 3
		minAudits    = 100
	)
	// Pairs span shards 1–2 (foreign to the shard-0 anchor) and 0–1.
	var pairs [][2]string
	for i := 0; i < pairsPer; i++ {
		pairs = append(pairs,
			[2]string{keyOnShard(cl, 1, fmt.Sprintf("audit-p%d", i)), keyOnShard(cl, 2, fmt.Sprintf("audit-q%d", i))},
			[2]string{keyOnShard(cl, 0, fmt.Sprintf("audit-r%d", i)), keyOnShard(cl, 1, fmt.Sprintf("audit-s%d", i))})
	}
	anchor := keyOnShard(cl, 0, "audit-anchor")
	for _, p := range pairs {
		for _, k := range p {
			if err := cl.Exec(func(tx Tx) error { return tx.PutInt(k, initial) }); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		audits    atomic.Int64
		violation atomic.Pointer[string]
	)
	for g := 0; g < transferers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(300 + seed))
			for i := 0; i < transfersPer; i++ {
				p := pairs[rng.Intn(len(pairs))]
				from, to := p[0], p[1]
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				amt := int64(rng.Intn(5) + 1)
				if err := cl.Exec(func(tx Tx) error {
					x, err := tx.GetInt(from)
					if err != nil {
						return err
					}
					y, err := tx.GetInt(to)
					if err != nil {
						return err
					}
					if err := tx.PutInt(from, x-amt); err != nil {
						return err
					}
					return tx.PutInt(to, y+amt)
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(g))
	}
	var auditWG sync.WaitGroup
	for g := 0; g < auditors; g++ {
		auditWG.Add(1)
		go func(seed int64) {
			defer auditWG.Done()
			rng := rand.New(rand.NewSource(400 + seed))
			// At least minAudits each, so audits run with no transfer in
			// flight too even when the scheduler starves them.
			for i := 0; i < minAudits || !done.Load(); i++ {
				p := pairs[rng.Intn(len(pairs))]
				anchored := rng.Intn(2) == 0
				var sum int64
				fn := func(tx Tx) error {
					if anchored {
						if _, err := tx.GetInt(anchor); err != nil {
							return err
						}
					}
					x, err := tx.GetInt(p[0])
					if err != nil {
						return err
					}
					if anchored {
						runtime.Gosched()
					}
					y, err := tx.GetInt(p[1])
					sum = x + y
					return err
				}
				var err error
				if i%2 == 0 {
					err = cl.Exec(fn)
				} else {
					ch := make(chan error, 1)
					cl.ExecAsync(fn, func(err error) { ch <- err })
					err = <-ch
				}
				if err != nil {
					t.Errorf("audit: %v", err)
					return
				}
				audits.Add(1)
				if sum != 2*initial {
					msg := fmt.Sprintf("audit of %v (anchored %v) read sum %d, want %d", p, anchored, sum, 2*initial)
					violation.CompareAndSwap(nil, &msg)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	done.Store(true)
	auditWG.Wait()

	if msg := violation.Load(); msg != nil {
		t.Error(*msg)
	}
	stats := cl.Stats()
	t.Logf("%d audits; router %+v", audits.Load(), stats.Router)
	if stats.Router.CrossShardReadOnly == 0 {
		t.Error("no audit committed with in-place foreign reads")
	}
	if stats.Router.CrossShard == 0 {
		t.Error("no cross-shard transfers committed")
	}
	if n := stats.Router.CrossShardApplyLost; n != 0 {
		t.Errorf("CrossShardApplyLost = %d, want 0", n)
	}
}

// TestStatsFenceCounters checks the fence counters surface through the
// public stats types end to end.
func TestStatsFenceCounters(t *testing.T) {
	_, _, stats := fenceStress(t, false)
	var aborts uint64
	for _, s := range stats.Shards {
		aborts += s.FenceAborts
	}
	// FenceAborts is timing-dependent (a single-shard txn must collide
	// with a fenced key), so only log it; the field existing and merging
	// is what this test pins.
	t.Logf("fence aborts across shards: %d; fenced keys: %d", aborts, stats.Router.FencedKeys)
	if !strings.Contains(fmt.Sprintf("%+v", stats.Router), "FencedKeys") {
		t.Error("RouterStats does not expose FencedKeys")
	}
}

// TestClusterFenceParkedRequestRetriedOnUnfence: a single-shard request
// that aborts on a cross-shard commit's fence parks at once — it is not
// retried while the fence stands — and completes after the router
// releases the fence and wakes the shard's workers.
func TestClusterFenceParkedRequestRetriedOnUnfence(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// a lives on shard sa, b on the other shard, sb.
	a := "park-a"
	sa := cl.ShardOf(a)
	b := ""
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("park-b-%d", i); cl.ShardOf(k) != sa {
			b = k
		}
	}
	sb := cl.ShardOf(b)

	// The cross-shard commit's gather is the only run of its body in
	// which both Adds succeed. At its end, occupy sb's only worker, so
	// the commit fences a and b and then waits for its apply on sb.
	gate := make(chan struct{})
	var hold sync.Once
	cross := make(chan error, 1)
	go func() {
		cross <- cl.Exec(func(tx Tx) error {
			if err := tx.Add(a, 1); err != nil {
				return err
			}
			if err := tx.Add(b, 1); err != nil {
				return err
			}
			hold.Do(func() {
				cl.DB(sb).ExecAsync(func(Tx) error { <-gate; return nil }, func(error) {})
			})
			return nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec := cl.DB(sa).Internal().Store().Get(a); rec != nil && rec.FenceToken() != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cross-shard commit never fenced its keys")
		}
		time.Sleep(time.Millisecond)
	}

	// A single-shard Add of a now aborts on the fence and parks.
	var fenced atomic.Int32
	single := make(chan error, 1)
	go func() {
		single <- cl.Exec(func(tx Tx) error {
			err := tx.Add(a, 10)
			if errors.Is(err, engine.ErrFenced) {
				fenced.Add(1)
			}
			return err
		})
	}()
	for fenced.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the single-shard Add never met the fence")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-single:
		t.Fatalf("the Add finished (%v) while its key was fenced", err)
	default:
	}
	if n := fenced.Load(); n != 1 {
		t.Fatalf("the parked Add ran %d times against the fence, want 1", n)
	}

	close(gate)
	for _, ch := range []chan error{cross, single} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a transaction never completed after the fence was released")
		}
	}
	if err := cl.Exec(func(tx Tx) error {
		n, err := tx.GetInt(a)
		if err != nil {
			return err
		}
		if n != 11 {
			return fmt.Errorf("%s = %d, want 11", a, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCloseWithFenceParkedRequest: Close while a single-shard
// request is parked on a cross-shard commit's fence. Close must wait for
// the fence's release and complete the parked request exactly once,
// whichever shard it closes first.
func TestClusterCloseWithFenceParkedRequest(t *testing.T) {
	cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a := "park-a"
	sa := cl.ShardOf(a)
	b := ""
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("park-b-%d", i); cl.ShardOf(k) != sa {
			b = k
		}
	}
	sb := cl.ShardOf(b)

	// As in TestClusterFenceParkedRequestRetriedOnUnfence: the
	// cross-shard commit fences a and b, then waits for its apply behind
	// a gated transaction on sb's only worker.
	gate := make(chan struct{})
	var hold sync.Once
	cross := make(chan error, 1)
	go func() {
		cross <- cl.Exec(func(tx Tx) error {
			if err := tx.Add(a, 1); err != nil {
				return err
			}
			if err := tx.Add(b, 1); err != nil {
				return err
			}
			hold.Do(func() {
				cl.DB(sb).ExecAsync(func(Tx) error { <-gate; return nil }, func(error) {})
			})
			return nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec := cl.DB(sa).Internal().Store().Get(a); rec != nil && rec.FenceToken() != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cross-shard commit never fenced its keys")
		}
		time.Sleep(time.Millisecond)
	}

	var fenced, completions atomic.Int32
	single := make(chan error, 1)
	cl.ExecAsync(func(tx Tx) error {
		err := tx.Add(a, 10)
		if errors.Is(err, engine.ErrFenced) {
			fenced.Add(1)
		}
		return err
	}, func(err error) {
		completions.Add(1)
		single <- err
	})
	for fenced.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the single-shard Add never met the fence")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the fence was released")
	}
	select {
	case err := <-single:
		if err != nil {
			t.Fatalf("the parked Add completed with %v, want nil", err)
		}
	default:
		t.Fatal("Close returned before the parked Add's callback fired")
	}
	if err := <-cross; err != nil {
		t.Logf("cross-shard commit: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if n := completions.Load(); n != 1 {
		t.Fatalf("the parked Add completed %d times, want once", n)
	}
}

// TestClusterCloseKeepsCrossShardCommitsWhole: Close while goroutines
// loop cross-shard transfers. A transfer that has prepared applies on
// both shards before either closes, and one that has not fails with
// ErrClosed before fencing, so no apply is lost and the balances still
// sum to zero. Closing the shards one by one, with no router lock held,
// half-applied most rounds.
func TestClusterCloseKeepsCrossShardCommitsWhole(t *testing.T) {
	for round := 0; round < 30; round++ {
		cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		a, b := keyOnShard(cl, 0, "close-a"), keyOnShard(cl, 1, "close-b")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := cl.Exec(func(tx Tx) error {
						if err := tx.Add(a, -1); err != nil {
							return err
						}
						return tx.Add(b, 1)
					})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("transfer: %v", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		cl.Close()
		wg.Wait()
		if lost := cl.Stats().Router.CrossShardApplyLost; lost != 0 {
			t.Fatalf("round %d: %d applies lost across Close", round, lost)
		}
		var sum int64
		for s, k := range []string{a, b} {
			if rec := cl.DB(s).Internal().Store().Get(k); rec != nil {
				n, err := rec.Value().AsInt()
				if err != nil {
					t.Fatal(err)
				}
				sum += n
			}
		}
		if sum != 0 {
			t.Fatalf("round %d: balances sum to %d after Close, want 0", round, sum)
		}
	}
}
