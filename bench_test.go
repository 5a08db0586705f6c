package doppel_test

// One benchmark per table and figure of the paper's evaluation (§8).
//
// Each runs one representative point of its experiment: a 50 ms
// bench.RunLoad on a fresh engine per iteration, reporting committed
// transactions per second (or the figure's own metric). Run
// `doppel-bench -experiment <name>` for the full sweep behind each
// figure. The RealAdd benchmarks measure one worker's per-transaction
// cost under each concurrency-control scheme. On a host with few CPUs
// the engines cannot show the paper's many-core speedups.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"doppel"
	"doppel/internal/bench"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/rng"
	"doppel/internal/rubis"
	"doppel/internal/store"
	"doppel/internal/workload"
)

const (
	pointWorkers = 2
	pointRecords = 10_000
	pointLength  = 50 * time.Millisecond
)

// loadPoint runs gen on a fresh engine for pointLength per iteration
// and reports committed transactions per second. report, when non-nil,
// sees the engine (before Stop) and the last iteration's result.
func loadPoint(b *testing.B, name string, workers int, preload func(*store.Store), gen workload.Generator,
	tune func(*core.Config), report func(engine.Engine, bench.Result)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, _ := bench.Open(name, workers, preload, tune)
		res := bench.RunLoad(e, gen, bench.Options{Duration: pointLength, Seed: uint64(i + 1)})
		if report != nil && i == b.N-1 {
			report(e, res)
		}
		e.Stop()
		b.ReportMetric(res.Throughput, "txn/s")
	}
}

// eachEngine runs fn as one sub-benchmark per named engine.
func eachEngine(b *testing.B, names []string, fn func(b *testing.B, name string)) {
	for _, name := range names {
		b.Run(name, func(b *testing.B) { fn(b, name) })
	}
}

var incrKeys = workload.NewKeySpace('k', pointRecords)

func counters(st *store.Store) {
	for i := 0; i < incrKeys.N(); i++ {
		st.Preload(incrKeys.Key(i), store.IntValue(0))
	}
}

// likeLoad is LIKE over pointRecords/2 users and pages, alpha = 1.4.
func likeLoad(writeFrac float64) (func(*store.Store), workload.Generator) {
	users := workload.NewKeySpace('u', pointRecords/2)
	pages := workload.NewKeySpace('p', pointRecords/2)
	preload := func(st *store.Store) {
		for i := 0; i < users.N(); i++ {
			st.Preload(users.Key(i), store.BytesValue(nil))
			st.Preload(pages.Key(i), store.IntValue(0))
		}
	}
	return preload, &workload.Like{Users: users, Pages: pages,
		PageZipf: workload.NewZipf(pages.N(), 1.4), WriteFrac: writeFrac}
}

// rubisC is RUBiS-C over pointRecords users and 330 auctions.
func rubisC(alpha float64) (func(*store.Store), workload.Generator) {
	app := rubis.NewApp(pointRecords, pointRecords*33/1000, pointWorkers)
	return app.Preload, rubis.NewMixC(app, alpha, true)
}

// --- Figure 8: INCR1 vs hot fraction (the 100% point, where the paper
// reports its 38x/19x/6.2x headline ratios on 20 cores). ---

func BenchmarkFig8INCR1Hot100(b *testing.B) {
	gen := &workload.Incr1{Keys: incrKeys, HotFrac: 1.0}
	eachEngine(b, []string{"doppel", "occ", "2pl", "atomic"}, func(b *testing.B, name string) {
		loadPoint(b, name, pointWorkers, counters, gen, nil, nil)
	})
}

// --- Figure 9: per-worker throughput at GOMAXPROCS workers. ---

func BenchmarkFig9ScalingDoppel(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	gen := &workload.Incr1{Keys: incrKeys, HotFrac: 1.0}
	loadPoint(b, "doppel", n, counters, gen, nil, func(_ engine.Engine, res bench.Result) {
		b.ReportMetric(res.Throughput/float64(n), "txn/s/worker")
	})
}

// --- Figure 10: changing hot key. Five 10 ms runs on one engine, the
// hot key moving between runs. ---

func BenchmarkFig10ChangingHotKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, _ := bench.Open("doppel", pointWorkers, counters, nil)
		var res bench.Result
		for k := 0; k < 5; k++ {
			gen := &workload.Incr1{Keys: incrKeys, HotKey: k, HotFrac: 0.10}
			res = bench.RunLoad(e, gen, bench.Options{Duration: pointLength / 5, Seed: uint64(k + 1)})
		}
		e.Stop()
		b.ReportMetric(float64(res.Stats.Committed)/pointLength.Seconds(), "txn/s")
	}
}

// --- Figure 11 / Table 2: INCRZ at alpha=1.4. ---

func BenchmarkFig11INCRZAlpha14(b *testing.B) {
	gen := &workload.IncrZ{Keys: incrKeys, Zipf: workload.NewZipf(pointRecords, 1.4)}
	eachEngine(b, []string{"doppel", "occ"}, func(b *testing.B, name string) {
		loadPoint(b, name, pointWorkers, counters, gen, nil, nil)
	})
}

func BenchmarkTable2SplitKeyCount(b *testing.B) {
	gen := &workload.IncrZ{Keys: incrKeys, Zipf: workload.NewZipf(pointRecords, 1.4)}
	loadPoint(b, "doppel", pointWorkers, counters, gen, nil, func(e engine.Engine, _ bench.Result) {
		b.ReportMetric(float64(len(e.(*core.DB).SplitKeys())), "keys-moved")
	})
}

// --- Table 1 is analytic; benchmark the Zipf sampler itself. ---

func BenchmarkTable1ZipfSampler(b *testing.B) {
	z := workload.NewZipf(1_000_000, 1.4)
	r := rng.New(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}

// --- Figure 12 / Table 3: LIKE 50/50 at alpha=1.4. ---

func BenchmarkFig12LIKE50(b *testing.B) {
	preload, gen := likeLoad(0.5)
	eachEngine(b, []string{"doppel", "occ"}, func(b *testing.B, name string) {
		loadPoint(b, name, pointWorkers, preload, gen, nil, nil)
	})
}

func BenchmarkTable3LIKEReadLatency(b *testing.B) {
	preload, gen := likeLoad(0.5)
	loadPoint(b, "doppel", pointWorkers, preload, gen, nil, func(_ engine.Engine, res bench.Result) {
		b.ReportMetric(float64(res.Stats.ReadLatency.Quantile(0.99))/1000, "p99-read-us")
	})
}

// --- Figures 13/14: phase length sensitivity (the 5 ms point). ---

func phase5ms(c *core.Config) { c.PhaseLength = 5 * time.Millisecond }

func BenchmarkFig13PhaseLength5ms(b *testing.B) {
	preload, gen := likeLoad(0.5)
	loadPoint(b, "doppel", pointWorkers, preload, gen, phase5ms, func(_ engine.Engine, res bench.Result) {
		b.ReportMetric(res.Stats.ReadLatency.Mean()/1000, "mean-read-us")
	})
}

func BenchmarkFig14PhaseLength5msThroughput(b *testing.B) {
	preload, gen := likeLoad(0.5)
	loadPoint(b, "doppel", pointWorkers, preload, gen, phase5ms, nil)
}

// --- Table 4 / Figure 15: RUBiS-C. ---

func BenchmarkTable4RUBiSC(b *testing.B) {
	preload, gen := rubisC(1.8)
	eachEngine(b, []string{"doppel", "occ"}, func(b *testing.B, name string) {
		loadPoint(b, name, pointWorkers, preload, gen, nil, nil)
	})
}

func BenchmarkFig15RUBiSCAlpha14(b *testing.B) {
	preload, gen := rubisC(1.4)
	eachEngine(b, []string{"doppel", "occ", "2pl"}, func(b *testing.B, name string) {
		loadPoint(b, name, pointWorkers, preload, gen, nil, nil)
	})
}

// --- Real-engine benchmarks: per-transaction cost on this machine. ---

func preloadHot(st *store.Store) { st.Preload("hot", store.IntValue(0)) }

// joinedOnly turns Doppel's coordinator off: joined-phase cost only.
func joinedOnly(c *core.Config) { c.PhaseLength = 0 }

func benchRealAdd(b *testing.B, name string) {
	e, _ := bench.Open(name, 1, preloadHot, joinedOnly)
	defer e.Stop()
	fn := func(tx engine.Tx) error { return tx.Add("hot", 1) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err := e.Attempt(0, fn, 0); err != nil || out != engine.Committed {
			b.Fatalf("outcome %v err %v", out, err)
		}
	}
}

func BenchmarkRealAddDoppelJoined(b *testing.B) { benchRealAdd(b, "doppel") }
func BenchmarkRealAddOCC(b *testing.B)          { benchRealAdd(b, "occ") }
func BenchmarkRealAddTwoPL(b *testing.B)        { benchRealAdd(b, "2pl") }
func BenchmarkRealAddAtomic(b *testing.B)       { benchRealAdd(b, "atomic") }

// BenchmarkRealAddDoppelSplit measures the split-phase fast path: the
// hot key is hinted split, so every Add goes to a per-core slice.
func BenchmarkRealAddDoppelSplit(b *testing.B) {
	e, _ := bench.Open("doppel", 1, preloadHot, joinedOnly)
	db := e.(*core.DB)
	defer db.Close()
	db.SplitHint("hot", store.OpAdd)
	if !db.RequestSplitPhase() {
		b.Fatal("split refused")
	}
	db.Poll(0)
	fn := func(tx engine.Tx) error { return tx.Add("hot", 1) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err := db.Attempt(0, fn, 0); err != nil || out != engine.Committed {
			b.Fatalf("outcome %v err %v", out, err)
		}
	}
}

// BenchmarkCheckpoint measures one full checkpoint (quiesced cut +
// snapshot write + manifest install + segment GC) of a 10k-record store
// under a running database.
func BenchmarkCheckpoint(b *testing.B) {
	dir := b.TempDir()
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, RedoLog: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const keys = 10_000
	for i := 0; i < keys; i++ {
		key := "k" + string(rune('a'+i%26)) + fmt.Sprint(i)
		if err := db.Exec(func(tx doppel.Tx) error { return tx.PutInt(key, int64(i)) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCheckpointBarrier populates a store of the given size and
// reports the worker-visible pause of a checkpoint cut alongside the
// concurrent walk time. Two acceptance properties of the incremental
// streaming cut: barrier-ns stays flat as keys grows (the pause is
// O(1)) while only walk-ns — which runs with workers live — scales
// with the store; and allocated bytes/op stay roughly flat from 1k to
// 100k records, because the streaming walk encodes and writes entries
// through reused buffers instead of materializing the store
// (ReportAllocs makes this visible as B/op).
func benchCheckpointBarrier(b *testing.B, keys int) {
	b.Helper()
	b.ReportAllocs()
	dir := b.TempDir()
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, RedoLog: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	wg.Add(keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		n := int64(i)
		db.ExecAsync(func(tx doppel.Tx) error { return tx.PutInt(key, n) }, func(err error) {
			if err != nil {
				b.Error(err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cs := db.CheckpointStats()
	b.ReportMetric(float64(cs.LastBarrier.Nanoseconds()), "barrier-ns")
	b.ReportMetric(float64(cs.LastWalk.Nanoseconds()), "walk-ns")
	b.ReportMetric(float64(cs.LastEntries), "entries")
}

func BenchmarkCheckpointBarrier1k(b *testing.B)   { benchCheckpointBarrier(b, 1_000) }
func BenchmarkCheckpointBarrier10k(b *testing.B)  { benchCheckpointBarrier(b, 10_000) }
func BenchmarkCheckpointBarrier100k(b *testing.B) { benchCheckpointBarrier(b, 100_000) }

// BenchmarkRecoverSegments measures Recover over a size-rotated,
// multi-segment log with a mid-run checkpoint, so the snapshot load and
// the replay of several segments run concurrently.
func BenchmarkRecoverSegments(b *testing.B) {
	dir := b.TempDir()
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, RedoLog: dir, MaxSegmentBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	const txns = 20_000
	load := func(n int) {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i%500)
			db.ExecAsync(func(tx doppel.Tx) error { return tx.Add(key, 1) }, func(err error) {
				if err != nil {
					b.Error(err)
				}
				wg.Done()
			})
		}
		wg.Wait()
	}
	load(txns / 2)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	load(txns / 2)
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := doppel.Recover(dir, doppel.Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rec.LastRecovery().SegmentsReplayed), "segments")
			b.ReportMetric(float64(rec.LastRecovery().SnapshotEntries), "snapshot-entries")
		}
		b.StopTimer()
		rec.Close()
		b.StartTimer()
	}
}

// BenchmarkRecoverFullReplay measures Recover with no checkpoint: the
// whole log replays. Compare with BenchmarkRecoverAfterCheckpoint; the
// doppel-bench -recovery mode sweeps this at larger scales.
func BenchmarkRecoverFullReplay(b *testing.B) {
	benchRecover(b, false)
}

// BenchmarkRecoverAfterCheckpoint measures bounded recovery: snapshot
// load plus replay of only the post-checkpoint tail.
func BenchmarkRecoverAfterCheckpoint(b *testing.B) {
	benchRecover(b, true)
}

func benchRecover(b *testing.B, checkpoint bool) {
	b.Helper()
	dir := b.TempDir()
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, RedoLog: dir})
	if err != nil {
		b.Fatal(err)
	}
	const txns = 10_000
	for i := 0; i < txns; i++ {
		key := fmt.Sprintf("k%d", i%500)
		if err := db.Exec(func(tx doppel.Tx) error { return tx.Add(key, 1) }); err != nil {
			b.Fatal(err)
		}
	}
	if checkpoint {
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := doppel.Recover(dir, doppel.Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rec.LastRecovery().RecordsReplayed), "records-replayed")
		}
		b.StopTimer()
		rec.Close()
		b.StartTimer()
	}
}

// BenchmarkPublicExec measures the service-mode Exec path end to end.
func BenchmarkPublicExec(b *testing.B) {
	db := doppel.Open(doppel.Options{Workers: 2})
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Exec(func(tx doppel.Tx) error { return tx.Add("k", 1) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicExecRedo is BenchmarkPublicExec with asynchronous redo
// logging enabled: the gap between the two is the full logging overhead
// on the service path (encode + LSN append; commits do not wait).
func BenchmarkPublicExecRedo(b *testing.B) {
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, RedoLog: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Exec(func(tx doppel.Tx) error { return tx.Add("k", 1) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicExecSyncCommit measures the durability-synchronous
// mode: every acknowledgement waits for its group commit's fsync. A
// single blocking caller pays one fsync per op — the worst case; the
// watermark design exists so concurrent callers share each fsync.
func BenchmarkPublicExecSyncCommit(b *testing.B) {
	db, err := doppel.OpenErr(doppel.Options{Workers: 2, RedoLog: b.TempDir(), SyncCommit: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Exec(func(tx doppel.Tx) error { return tx.Add("k", 1) }); err != nil {
			b.Fatal(err)
		}
	}
}
