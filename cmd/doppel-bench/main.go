// Command doppel-bench regenerates the tables and figures of "Phase
// Reconciliation for Contended In-Memory Transactions" (OSDI 2014) on the
// repository's multicore simulator, and can additionally drive the real
// engines on the local machine.
//
// Usage:
//
//	doppel-bench -experiment fig8            # one experiment
//	doppel-bench -experiment all             # the whole evaluation
//	doppel-bench -experiment fig11 -cores 40 # different core count
//	doppel-bench -real -duration 2s          # real-engine INCR1 run
//	doppel-bench -net -duration 2s           # network protocol: blocking vs pipelined
//	doppel-bench -recovery -txns 50000       # recovery time: full replay vs after a checkpoint
//	doppel-bench -checkpoint                 # checkpoint cost vs store size (barrier/walk/alloc)
//	doppel-bench -replication -duration 2s   # replication lag vs write throughput with a WAL-tailing follower
//	doppel-bench -recovery -json             # additionally write BENCH_recovery.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"doppel"
	"doppel/internal/atomiceng"
	"doppel/internal/bench"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/occ"
	"doppel/internal/rng"
	"doppel/internal/server"
	"doppel/internal/store"
	"doppel/internal/twopl"
	"doppel/internal/workload"
)

func main() {
	exp := flag.String("experiment", "", "experiment to run: "+strings.Join(bench.ExperimentNames(), ", ")+", or 'all'")
	cores := flag.Int("cores", 20, "simulated core count")
	records := flag.Int("records", 1_000_000, "simulated record count")
	full := flag.Bool("full", false, "longer simulations for smoother curves")
	seed := flag.Uint64("seed", 42, "simulation seed")
	real := flag.Bool("real", false, "run INCR1 on the real engines instead of the simulator")
	netMode := flag.Bool("net", false, "run the networked INCR1 benchmark: blocking vs pipelined on one connection")
	recovery := flag.Bool("recovery", false, "measure recovery time: full WAL replay vs bounded replay after a checkpoint")
	ckptMode := flag.Bool("checkpoint", false, "measure checkpoint cost (barrier, walk, allocation) across store sizes")
	replMode := flag.Bool("replication", false, "measure replication lag vs write throughput with a WAL-tailing follower")
	jsonOut := flag.Bool("json", false, "recovery/checkpoint/replication modes: also write machine-readable BENCH_<mode>.json")
	txns := flag.Int("txns", 50_000, "recovery mode: transactions to log before measuring")
	segBytes := flag.Int64("segment-bytes", 128<<10, "recovery mode: WAL segment size (small values force a multi-segment log)")
	addr := flag.String("addr", "", "net mode: benchmark an already-running server instead of an in-process one")
	inflight := flag.Int("inflight", 128, "net mode: pipelined requests kept in flight")
	flush := flag.Duration("flush", 0, "net mode: server/client flush interval (0 flushes when idle)")
	hot := flag.Float64("hot", 1.0, "real/net mode: fraction of transactions on the hot key")
	duration := flag.Duration("duration", time.Second, "real/net mode: run duration per engine")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "real/net mode: worker count")
	flag.Parse()

	if *replMode {
		runReplication(*duration, *jsonOut)
		return
	}
	if *recovery {
		runRecovery(*txns, *workers, *segBytes, *jsonOut)
		return
	}
	if *ckptMode {
		runCheckpoint(*workers, *jsonOut)
		return
	}
	if *netMode {
		runNet(*addr, *hot, *duration, *workers, *inflight, *flush)
		return
	}
	if *real {
		runReal(*hot, *duration, *workers)
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.ExpConfig{Cores: *cores, Records: *records, Seed: *seed, Full: *full}
	if *exp == "all" {
		for _, name := range []string{"fig8", "fig9", "fig10", "fig11", "table1",
			"table2", "fig12", "table3", "fig13", "fig14", "table4", "fig15"} {
			bench.Experiments[name](os.Stdout, cfg)
			fmt.Println()
		}
		return
	}
	fn, ok := bench.Experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s\n", *exp, strings.Join(bench.ExperimentNames(), ", "))
		os.Exit(2)
	}
	fn(os.Stdout, cfg)
}

// runNet measures the network path with INCR1-over-RPC on a single
// client connection, first with the blocking request/response pattern
// (one request in flight, as the seed protocol forced), then pipelined
// with `inflight` outstanding requests. The gap between the two is the
// round-trip cost the pipelined protocol removes.
func runNet(addr string, hot float64, dur time.Duration, workers, inflight int, flush time.Duration) {
	const keys = 100_000
	if addr == "" {
		db := doppel.Open(doppel.Options{Workers: workers})
		defer db.Close()
		srv := server.NewWithOptions(db, server.Options{MaxInFlight: inflight, FlushEvery: flush})
		srv.Register("add", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
			n, err := args[1].Int64()
			if err != nil {
				return server.Nil, err
			}
			return server.Nil, tx.Add(args[0].String(), n)
		})
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addr = bound
	}

	ks := workload.NewKeySpace('k', keys)
	pick := func(r *rng.Rand) string {
		if r.Bool(hot) {
			return ks.Key(0)
		}
		return ks.Key(1 + r.Intn(keys-1))
	}

	fmt.Printf("# networked INCR1: 1 connection, %d workers, hot=%.0f%%, %v per mode, flush=%v\n",
		workers, hot*100, dur, flush)
	fmt.Printf("%-22s %12s %12s %12s %12s\n", "mode", "req/s", "requests", "p50", "p99")
	row := func(mode string, n int, elapsed time.Duration, lat *metrics.Hist) float64 {
		tput := float64(n) / elapsed.Seconds()
		fmt.Printf("%-22s %12.0f %12d %12v %12v\n", mode, tput, n,
			time.Duration(lat.Quantile(0.5)), time.Duration(lat.Quantile(0.99)))
		return tput
	}

	n, elapsed, lat := netBlocking(addr, flush, dur, pick)
	blocking := row("blocking (seed-style)", n, elapsed, lat)
	n, elapsed, lat = netPipelined(addr, flush, dur, inflight, pick)
	pipelined := row(fmt.Sprintf("pipelined (%d)", inflight), n, elapsed, lat)
	if blocking > 0 {
		fmt.Printf("speedup: %.1fx\n", pipelined/blocking)
	}
}

func netDial(addr string, flush time.Duration) *server.Client {
	c, err := server.DialOptions(addr, server.Options{FlushEvery: flush})
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// netBlocking issues one synchronous request at a time: every request
// pays a full network round trip, like the seed protocol.
func netBlocking(addr string, flush time.Duration, dur time.Duration, pick func(*rng.Rand) string) (int, time.Duration, *metrics.Hist) {
	c := netDial(addr, flush)
	defer c.Close()
	r := rng.New(1)
	lat := metrics.NewHist()
	n := 0
	begin := time.Now()
	deadline := begin.Add(dur)
	for time.Now().Before(deadline) {
		start := time.Now()
		if _, err := c.Call("add", server.Str(pick(r)), server.Int(1)); err != nil {
			log.Fatal(err)
		}
		lat.Record(time.Since(start).Nanoseconds())
		n++
	}
	return n, time.Since(begin), lat
}

// netPipelined keeps `window` requests outstanding on one connection,
// reaping completions as the server answers (possibly out of order).
func netPipelined(addr string, flush time.Duration, dur time.Duration, window int, pick func(*rng.Rand) string) (int, time.Duration, *metrics.Hist) {
	c := netDial(addr, flush)
	defer c.Close()
	r := rng.New(2)
	lat := metrics.NewHist()
	done := make(chan *server.Call, 2*window)
	starts := make(map[*server.Call]time.Time, window)
	n, inFlight := 0, 0
	begin := time.Now()
	deadline := begin.Add(dur)
	for {
		for inFlight < window && time.Now().Before(deadline) {
			call := c.Go("add", []server.Arg{server.Str(pick(r)), server.Int(1)}, done)
			starts[call] = time.Now()
			inFlight++
		}
		if inFlight == 0 {
			break
		}
		call := <-done
		if call.Err != nil {
			log.Fatal(call.Err)
		}
		lat.Record(time.Since(starts[call]).Nanoseconds())
		delete(starts, call)
		inFlight--
		n++
	}
	return n, time.Since(begin), lat
}

// benchRow is one mode's measurement in the machine-readable output.
type benchRow struct {
	Mode            string `json:"mode"`
	NS              int64  `json:"ns"`
	Segments        int    `json:"segments,omitempty"`
	Records         int    `json:"records,omitempty"`
	SnapshotEntries int    `json:"snapshot_entries,omitempty"`
	StoreRecords    int    `json:"store_records,omitempty"`
	BarrierNS       int64  `json:"barrier_ns,omitempty"`
	WalkNS          int64  `json:"walk_ns,omitempty"`
	SnapshotBytes   int64  `json:"snapshot_bytes,omitempty"`
	AllocBytes      uint64 `json:"alloc_bytes,omitempty"`
	COWSaves        int    `json:"cow_saves,omitempty"`
}

// benchReport is the BENCH_<mode>.json document: enough context to
// compare the same mode's rows across PRs.
type benchReport struct {
	Mode    string            `json:"mode"`
	Config  map[string]string `json:"config"`
	Rows    []benchRow        `json:"rows"`
	Version int               `json:"version"`
}

// writeBenchJSON writes report to BENCH_<mode>.json in the current
// directory so CI can track the perf trajectory across PRs.
func writeBenchJSON(report benchReport) {
	report.Version = 1
	writeJSONDoc(report.Mode, report)
}

// writeJSONDoc writes any report document to BENCH_<mode>.json; modes
// whose rows don't fit benchRow (replication) bring their own document
// type and call this directly.
func writeJSONDoc(mode string, doc any) {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	name := "BENCH_" + mode + ".json"
	if err := os.WriteFile(name, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", name)
}

// replRow is one replication measurement. None of the fields are
// omitempty: CI asserts their presence on every row, and a measured
// zero (an idle follower's lag) must not make the key vanish.
type replRow struct {
	Mode           string  `json:"mode"`
	NS             int64   `json:"ns"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	Committed      uint64  `json:"committed"`
	AppliedLSN     uint64  `json:"applied_lsn"`
	LagRecords     float64 `json:"lag_records"`
	LagRecordsMax  int64   `json:"lag_records_max"`
	CatchupNS      int64   `json:"catchup_ns"`
}

// replReport is the BENCH_replication.json document.
type replReport struct {
	Mode    string            `json:"mode"`
	Config  map[string]string `json:"config"`
	Rows    []replRow         `json:"rows"`
	Version int               `json:"version"`
}

// runReplication measures what replication costs and how far behind a
// follower runs: for each primary worker count, 2w client goroutines
// drive uniform single-key increments while a follower tails the
// primary's WAL directory. A 1ms sampler records the replication lag —
// the primary's durable record count minus the follower's applied
// watermark — whose mean and max land in the row alongside the write
// throughput. After the writers stop and the primary closes, the row's
// catch-up time is how long the follower takes to drain the remaining
// gap to the log's true end.
func runReplication(dur time.Duration, jsonOut bool) {
	const keys = 10_000
	const poll = 200 * time.Microsecond
	ks := workload.NewKeySpace('k', keys)

	fmt.Printf("# replication lag vs write throughput: follower tails the WAL at poll=%v, %v per row\n", poll, dur)
	fmt.Printf("%-14s %14s %12s %12s %12s %12s %12s\n",
		"mode", "write txn/s", "committed", "applied", "lag(mean)", "lag(max)", "catch-up")
	var rows []replRow

	for _, w := range []int{1, 2, 4} {
		dir, err := os.MkdirTemp("", "doppel-replication-")
		if err != nil {
			log.Fatal(err)
		}
		db, err := doppel.OpenErr(doppel.Options{Workers: w, RedoLog: dir})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := doppel.OpenFollower(dir, doppel.FollowerOptions{PollInterval: poll})
		if err != nil {
			log.Fatal(err)
		}

		clients := 2 * w
		counts := make([]uint64, clients)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		begin := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rng.New(uint64(100 + c))
				for {
					select {
					case <-stop:
						return
					default:
					}
					key := ks.Key(r.Intn(keys))
					if err := db.Exec(func(tx doppel.Tx) error { return tx.Add(key, 1) }); err != nil {
						log.Fatal(err)
					}
					counts[c]++
				}
			}(c)
		}

		// Sample the lag every millisecond while the writers run.
		var lagSum, lagMax, lagN int64
		samplerDone := make(chan struct{})
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					lag := int64(db.DurableLSN()) - int64(rep.AppliedLSN())
					if lag < 0 {
						lag = 0
					}
					lagSum += lag
					lagN++
					if lag > lagMax {
						lagMax = lag
					}
				}
			}
		}()

		time.Sleep(dur)
		close(stop)
		wg.Wait()
		<-samplerDone
		elapsed := time.Since(begin)
		db.Close() // final flush: LogPosition is now the log's true end

		catchStart := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := rep.WaitPosition(ctx, db.LogPosition()); err != nil {
			log.Fatalf("follower never caught up to %s (at %s): %v", db.LogPosition(), rep.Position(), err)
		}
		cancel()
		catchup := time.Since(catchStart)

		var committed uint64
		for _, n := range counts {
			committed += n
		}
		lagMean := 0.0
		if lagN > 0 {
			lagMean = float64(lagSum) / float64(lagN)
		}
		tput := float64(committed) / elapsed.Seconds()
		mode := fmt.Sprintf("repl-%dw", w)
		fmt.Printf("%-14s %14.0f %12d %12d %12.1f %12d %12v\n",
			mode, tput, committed, rep.AppliedLSN(), lagMean, lagMax, catchup)
		rows = append(rows, replRow{
			Mode: mode, NS: elapsed.Nanoseconds(),
			WriteOpsPerSec: tput, Committed: committed,
			AppliedLSN: rep.AppliedLSN(),
			LagRecords: lagMean, LagRecordsMax: lagMax,
			CatchupNS: catchup.Nanoseconds(),
		})
		rep.Close()
		os.RemoveAll(dir)
	}

	if jsonOut {
		writeJSONDoc("replication", replReport{
			Mode: "replication",
			Config: map[string]string{
				"keys":     fmt.Sprint(keys),
				"duration": dur.String(),
				"poll":     poll.String(),
			},
			Rows:    rows,
			Version: 1,
		})
	}
}

// runRecovery measures what checkpointing buys recovery: full replay
// of a multi-segment, size-rotated log against bounded replay of the
// snapshot plus the post-checkpoint tail. Both rows run the one
// recovery path (snapshot load overlapped with parallel segment replay
// at GOMAXPROCS).
func runRecovery(txns, workers int, segBytes int64, jsonOut bool) {
	dir, err := os.MkdirTemp("", "doppel-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	const keys = 1000

	db, err := doppel.OpenErr(doppel.Options{Workers: workers, RedoLog: dir, MaxSegmentBytes: segBytes})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		key := fmt.Sprintf("k%d", i%keys)
		if err := db.Exec(func(tx doppel.Tx) error { return tx.Add(key, 1) }); err != nil {
			log.Fatal(err)
		}
	}
	db.Close()

	fmt.Printf("# recovery time: %d logged transactions over %d keys, %d workers, %dKiB segments, GOMAXPROCS=%d\n",
		txns, keys, workers, segBytes>>10, runtime.GOMAXPROCS(0))
	fmt.Printf("%-26s %12s %10s %10s %12s\n", "mode", "recover", "segments", "records", "snapshot")
	var rows []benchRow
	row := func(mode string, d time.Duration, rs doppel.RecoveryStats) {
		snap := "-"
		if rs.SnapshotFile != "" {
			snap = fmt.Sprintf("%d recs", rs.SnapshotEntries)
		}
		fmt.Printf("%-26s %12v %10d %10d %12s\n", mode, d, rs.SegmentsReplayed, rs.RecordsReplayed, snap)
		rows = append(rows, benchRow{
			Mode: mode, NS: d.Nanoseconds(),
			Segments: rs.SegmentsReplayed, Records: rs.RecordsReplayed,
			SnapshotEntries: rs.SnapshotEntries,
		})
	}
	recover := func() (*doppel.DB, time.Duration) {
		start := time.Now()
		rec, err := doppel.Recover(dir, doppel.Options{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		return rec, time.Since(start)
	}

	rec, full := recover()
	row("full replay", full, rec.LastRecovery())

	// Checkpoint, then append a 1% tail so the after-checkpoint row has
	// both a snapshot and real (but small) replay work.
	if err := rec.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	tail := txns / 100
	for i := 0; i < tail; i++ {
		key := fmt.Sprintf("k%d", i%keys)
		if err := rec.Exec(func(tx doppel.Tx) error { return tx.Add(key, 1) }); err != nil {
			log.Fatal(err)
		}
	}
	rec.Close()

	rec, bounded := recover()
	row(fmt.Sprintf("after checkpoint (+%d)", tail), bounded, rec.LastRecovery())
	rec.Close()
	if bounded > 0 {
		fmt.Printf("replay bound speedup: %.1fx\n", float64(full)/float64(bounded))
	}

	if jsonOut {
		writeBenchJSON(benchReport{
			Mode: "recovery",
			Config: map[string]string{
				"txns":          fmt.Sprint(txns),
				"keys":          fmt.Sprint(keys),
				"workers":       fmt.Sprint(workers),
				"segment_bytes": fmt.Sprint(segBytes),
				"gomaxprocs":    fmt.Sprint(runtime.GOMAXPROCS(0)),
			},
			Rows: rows,
		})
	}
}

// runCheckpoint measures one streaming checkpoint at several store
// sizes: the worker-visible barrier pause (must stay flat — it is
// O(1)), the concurrent walk+write time (scales with the store), and
// the bytes allocated during the checkpoint (must stay roughly flat:
// the streaming walk never materializes the store).
func runCheckpoint(workers int, jsonOut bool) {
	sizes := []int{1_000, 10_000, 100_000}
	fmt.Printf("# checkpoint cost vs store size: %d workers\n", workers)
	fmt.Printf("%-10s %12s %12s %12s %12s %12s\n", "records", "barrier", "walk", "total", "snapshot", "alloc")
	var rows []benchRow
	for _, n := range sizes {
		dir, err := os.MkdirTemp("", "doppel-checkpoint-")
		if err != nil {
			log.Fatal(err)
		}
		db, err := doppel.OpenErr(doppel.Options{Workers: workers, RedoLog: dir})
		if err != nil {
			log.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i)
			v := int64(i)
			db.ExecAsync(func(tx doppel.Tx) error { return tx.PutInt(key, v) }, func(err error) {
				if err != nil {
					log.Fatal(err)
				}
				wg.Done()
			})
		}
		wg.Wait()
		if err := db.Checkpoint(); err != nil { // warm up file system + buffers
			log.Fatal(err)
		}
		runtime.GC()
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		total := time.Since(start)
		runtime.ReadMemStats(&m2)
		cs := db.CheckpointStats()
		alloc := m2.TotalAlloc - m1.TotalAlloc
		fmt.Printf("%-10d %12v %12v %12v %11dB %11dB\n",
			n, cs.LastBarrier, cs.LastWalk, total, cs.LastBytes, alloc)
		rows = append(rows, benchRow{
			Mode: fmt.Sprintf("checkpoint-%d", n), NS: total.Nanoseconds(),
			StoreRecords: n, BarrierNS: cs.LastBarrier.Nanoseconds(),
			WalkNS: cs.LastWalk.Nanoseconds(), SnapshotBytes: cs.LastBytes,
			AllocBytes: alloc, COWSaves: cs.LastCOWSaves,
		})
		db.Close()
		os.RemoveAll(dir)
	}
	if jsonOut {
		writeBenchJSON(benchReport{
			Mode:   "checkpoint",
			Config: map[string]string{"workers": fmt.Sprint(workers)},
			Rows:   rows,
		})
	}
}

// runReal measures the real engines on this machine with the INCR1
// microbenchmark. On a single-CPU host this demonstrates functional
// behaviour (abort/stash accounting, conservation), not parallel
// speedup; see EXPERIMENTS.md.
func runReal(hot float64, dur time.Duration, workers int) {
	const keys = 100_000
	ks := workload.NewKeySpace('k', keys)
	gen := &workload.Incr1{Keys: ks, HotKey: 0, HotFrac: hot}

	build := func(name string) (engine.Engine, *store.Store) {
		st := store.New()
		for i := 0; i < keys; i++ {
			st.Preload(ks.Key(i), store.IntValue(0))
		}
		switch name {
		case "doppel":
			cfg := core.DefaultConfig(workers)
			return core.Open(st, cfg), st
		case "occ":
			return occ.New(st, workers), st
		case "2pl":
			return twopl.New(st, workers), st
		default:
			return atomiceng.New(st, workers), st
		}
	}

	fmt.Printf("# real-engine INCR1: %d workers, hot=%.0f%%, %v per engine\n", workers, hot*100, dur)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "engine", "txn/s", "committed", "aborted", "stashed")
	for _, name := range []string{"doppel", "occ", "2pl", "atomic"} {
		e, st := build(name)
		res := bench.RunLoad(e, gen, bench.Options{Duration: dur, Seed: 1})
		e.Stop()
		var total int64
		st.Range(func(k string, rec *store.Record) bool {
			n, _ := rec.Value().AsInt()
			total += n
			return true
		})
		ok := "ok"
		if total != int64(res.Stats.Committed) {
			ok = fmt.Sprintf("CONSERVATION VIOLATED (%d != %d)", total, res.Stats.Committed)
		}
		fmt.Printf("%-8s %12.0f %12d %12d %12d  %s\n", name, res.Throughput,
			res.Stats.Committed, res.Stats.Aborted, res.Stats.Stashed, ok)
	}
}
