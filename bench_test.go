package doppel_test

// One benchmark per table and figure of the paper's evaluation (§8).
//
// The Sim benchmarks run a representative point of each experiment on
// the multicore simulator and report simulated throughput; run
// `doppel-bench -experiment <name>` for the full sweep behind each
// figure. The Real benchmarks measure the actual engines on this
// machine: per-transaction cost of each concurrency-control scheme. On a
// single-CPU host the real engines cannot show parallel speedup — that
// is exactly what internal/sim substitutes for (see DESIGN.md §2).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"doppel"
	"doppel/internal/atomiceng"
	"doppel/internal/bench"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/occ"
	"doppel/internal/rng"
	"doppel/internal/sim"
	"doppel/internal/store"
	"doppel/internal/twopl"
	"doppel/internal/workload"
)

// simPoint runs one simulator configuration per benchmark iteration and
// reports simulated transactions/second.
func simPoint(b *testing.B, kind sim.Kind, gen sim.Generator, records int) {
	b.Helper()
	cfg := sim.Config{
		Engine:   kind,
		Cores:    20,
		Records:  records,
		Warmup:   20_000_000,
		Duration: 50_000_000,
		Seed:     42,
	}
	var tput float64
	for i := 0; i < b.N; i++ {
		res := sim.Run(cfg, gen)
		tput = res.Throughput
	}
	b.ReportMetric(tput, "sim-txn/s")
}

// --- Figure 8: INCR1 vs hot fraction (the 100% point, where the paper
// reports its 38x/19x/6.2x headline ratios). ---

func BenchmarkFig8INCR1Hot100Doppel(b *testing.B) {
	simPoint(b, sim.Doppel, sim.IncrGen(100_000, 1.0, 0), 100_000)
}
func BenchmarkFig8INCR1Hot100OCC(b *testing.B) {
	simPoint(b, sim.OCC, sim.IncrGen(100_000, 1.0, 0), 100_000)
}
func BenchmarkFig8INCR1Hot100TwoPL(b *testing.B) {
	simPoint(b, sim.TwoPL, sim.IncrGen(100_000, 1.0, 0), 100_000)
}
func BenchmarkFig8INCR1Hot100Atomic(b *testing.B) {
	simPoint(b, sim.Atomic, sim.IncrGen(100_000, 1.0, 0), 100_000)
}

// --- Figure 9: scaling (the 40-core point). ---

func BenchmarkFig9Scaling40CoresDoppel(b *testing.B) {
	cfg := sim.Config{Engine: sim.Doppel, Cores: 40, Records: 100_000,
		Warmup: 20_000_000, Duration: 50_000_000, Seed: 42}
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = sim.Run(cfg, sim.IncrGen(100_000, 1.0, 0)).Throughput
	}
	b.ReportMetric(tput/40, "sim-txn/s/core")
}

// --- Figure 10: changing hot key (adaptation run). ---

func BenchmarkFig10ChangingHotKey(b *testing.B) {
	cfg := sim.Config{Engine: sim.Doppel, Cores: 20, Records: 10_000,
		Warmup: 0, Duration: 300_000_000, Seed: 42}
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = sim.Run(cfg, sim.IncrGen(10_000, 0.10, 100_000_000)).Throughput
	}
	b.ReportMetric(tput, "sim-txn/s")
}

// --- Figure 11 / Table 2: INCRZ at alpha=1.4. ---

func BenchmarkFig11INCRZAlpha14Doppel(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	simPoint(b, sim.Doppel, sim.IncrZGen(z), 100_000)
}
func BenchmarkFig11INCRZAlpha14OCC(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	simPoint(b, sim.OCC, sim.IncrZGen(z), 100_000)
}
func BenchmarkTable2SplitKeyCount(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	cfg := sim.Config{Engine: sim.Doppel, Cores: 20, Records: 100_000,
		Warmup: 20_000_000, Duration: 50_000_000, Seed: 42}
	var moved float64
	for i := 0; i < b.N; i++ {
		moved = float64(len(sim.Run(cfg, sim.IncrZGen(z)).SplitKeys))
	}
	b.ReportMetric(moved, "keys-moved")
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

func BenchmarkFig12LIKE50Doppel(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	simPoint(b, sim.Doppel, sim.LikeGen(100_000, 100_000, z, 0.5), 200_000)
}
func BenchmarkFig12LIKE50OCC(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	simPoint(b, sim.OCC, sim.LikeGen(100_000, 100_000, z, 0.5), 200_000)
}
func BenchmarkTable3LIKEReadLatency(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	cfg := sim.Config{Engine: sim.Doppel, Cores: 20, Records: 200_000,
		Warmup: 20_000_000, Duration: 60_000_000, Seed: 42}
	var p99 float64
	for i := 0; i < b.N; i++ {
		res := sim.Run(cfg, sim.LikeGen(100_000, 100_000, z, 0.5))
		p99 = float64(res.ReadLat.Quantile(0.99))
	}
	b.ReportMetric(p99/1000, "sim-p99-read-us")
}

// --- Figures 13/14: phase length sensitivity (the 5 ms point). ---

func BenchmarkFig13PhaseLength5ms(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	cfg := sim.Config{Engine: sim.Doppel, Cores: 20, Records: 200_000,
		Warmup: 20_000_000, Duration: 60_000_000, Seed: 42}
	cfg.Doppel = sim.DefaultParams()
	cfg.Doppel.PhaseLen = 5_000_000
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = sim.Run(cfg, sim.LikeGen(100_000, 100_000, z, 0.5)).ReadLat.Mean()
	}
	b.ReportMetric(mean/1000, "sim-mean-read-us")
}
func BenchmarkFig14PhaseLength5msThroughput(b *testing.B) {
	z := workload.NewZipf(100_000, 1.4)
	cfg := sim.Config{Engine: sim.Doppel, Cores: 20, Records: 200_000,
		Warmup: 20_000_000, Duration: 60_000_000, Seed: 42}
	cfg.Doppel = sim.DefaultParams()
	cfg.Doppel.PhaseLen = 5_000_000
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = sim.Run(cfg, sim.LikeGen(100_000, 100_000, z, 0.5)).Throughput
	}
	b.ReportMetric(tput, "sim-txn/s")
}

// --- Table 4 / Figure 15: RUBiS-C at alpha=1.8. ---

func benchRUBiS(b *testing.B, kind sim.Kind) {
	users, items := 100_000, 33_000
	z := workload.NewZipf(items, 1.8)
	cfg := sim.Config{Engine: kind, Cores: 20,
		Records: sim.RUBiSRecords(users, items),
		Warmup:  20_000_000, Duration: 50_000_000, Seed: 42}
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = sim.Run(cfg, sim.RUBiSGen(users, items, z, 0.5)).Throughput
	}
	b.ReportMetric(tput, "sim-txn/s")
}

func BenchmarkTable4RUBiSCDoppel(b *testing.B) { benchRUBiS(b, sim.Doppel) }
func BenchmarkTable4RUBiSCOCC(b *testing.B)    { benchRUBiS(b, sim.OCC) }
func BenchmarkFig15RUBiSCTwoPL(b *testing.B)   { benchRUBiS(b, sim.TwoPL) }

// --- Real-engine benchmarks: per-transaction cost on this machine. ---

func realEngine(name string, workers int) (engine.Engine, *store.Store) {
	st := store.New()
	st.Preload("hot", store.IntValue(0))
	switch name {
	case "doppel":
		cfg := core.DefaultConfig(workers)
		cfg.PhaseLength = 0 // joined-phase cost without a coordinator
		return core.Open(st, cfg), st
	case "occ":
		return occ.New(st, workers), st
	case "2pl":
		return twopl.New(st, workers), st
	default:
		return atomiceng.New(st, workers), st
	}
}

func benchRealAdd(b *testing.B, name string) {
	e, _ := realEngine(name, 1)
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
	st := store.New()
	st.Preload("hot", store.IntValue(0))
	cfg := core.DefaultConfig(1)
	cfg.PhaseLength = 0
	db := core.Open(st, cfg)
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

// BenchmarkRealLoadDoppel runs the full harness loop (generation,
// retries, phase participation) briefly per iteration.
func BenchmarkRealLoadDoppel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := store.New()
		cfg := core.DefaultConfig(2)
		cfg.PhaseLength = 5 * time.Millisecond
		db := core.Open(st, cfg)
		ks := workload.NewKeySpace('k', 1000)
		gen := &workload.Incr1{Keys: ks, HotKey: 0, HotFrac: 0.5}
		res := bench.RunLoad(db, gen, bench.Options{Duration: 50 * time.Millisecond, Seed: 1})
		db.Close()
		b.ReportMetric(res.Throughput, "real-txn/s")
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
