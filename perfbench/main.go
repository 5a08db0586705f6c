// Command perfbench is the repository's benchmark. It drives one
// workload against the program's public entry points from a single
// load-generating goroutine, checks the program's outputs, and prints
// its metrics; see README.md for the workloads, the metrics and why
// each exists.
//
//	perfbench --workload hot-counter --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones from a separate traced window.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"doppel"
	"doppel/internal/core"
)

// config is one run's settings. The command line sets workload, seed,
// seconds and trace; the rest are fixed for the benchmark and shrunk
// only by its own tests.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured window
	trace    bool
	keys     int // counters, users and pages, or accounts
	setups   int // set-ups timed; the last one is measured
	warmup   time.Duration
	dir      string       // scratch directory for logs and spans
	dropAcks int          // test hook: acknowledged writes the generator forgets
	tamper   func(system) // test hook: runs after close, before the post-close checks
}

// defaultKeys is each workload's key count (users and pages each for
// like-wire). like-wire and transfer-durable hold fewer keys than
// hot-counter: at 1M, like-wire's GC cycles and transfer-durable's
// once-a-second checkpoint walks dominated their runs (README.md).
var defaultKeys = map[string]int{
	"hot-counter":      1_000_000,
	"like-wire":        100_000,
	"transfer-durable": 100_000,
}

func defaultConfig(workload string, seed uint64, seconds float64, trace bool) config {
	return config{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		keys:     defaultKeys[workload],
		setups:   9,
		warmup:   time.Second,
		dir:      filepath.Join(".bench_build", "perfbench"),
	}
}

// system is one workload's program under test: how to set it up, drive
// it, check it and tear it down.
type system interface {
	txSource
	params() (window int, openRate float64)
	// open sets up a fresh instance in dir: open, preload, listen, dial.
	open(dir string) error
	submitter(g *gen) submitter
	dbs() []*doppel.DB
	// logDirs names each database's log directory, nil without logs.
	logDirs() []string
	router() *doppel.Cluster
	// check runs after the drain, before close; post runs after close.
	check(w window) []error
	close()
	post(g *gen) []error
	// directDB builds a bare core.DB holding the workload's preloaded
	// data, for the direct drive.
	directDB() *core.DB
}

// layerReporter is implemented by systems with layer metrics beyond the
// shared ones (server, checkpoint, recovery).
type layerReporter interface {
	layers(m map[string]float64, sp spanStats)
}

// newSystem builds cfg's workload; tr is the span store of a traced run,
// nil otherwise.
func newSystem(cfg config, tr *tracer) (system, error) {
	switch cfg.workload {
	case "hot-counter":
		return newHotCounter(cfg), nil
	case "like-wire":
		return newLikeWire(cfg, tr), nil
	case "transfer-durable":
		return newTransfer(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-counter, like-wire or transfer-durable)", cfg.workload)
}

// counters are the program's own cumulative counts, summed over shards.
type counters struct {
	aborted, stashed, retries uint64
	phaseChanges, fenceAborts uint64
	walRecords, checkpoints   uint64
	router                    doppel.RouterStats
}

func readCounters(sys system) counters {
	var c counters
	for _, db := range sys.dbs() {
		st := db.Stats()
		c.aborted += st.Aborted
		c.stashed += st.Stashed
		c.retries += st.Retries
		c.phaseChanges += st.PhaseChanges
		c.fenceAborts += st.FenceAborts
		c.walRecords += db.DurableLSN()
		c.checkpoints += db.CheckpointStats().Checkpoints
	}
	if cl := sys.router(); cl != nil {
		c.router = cl.Stats().Router
	}
	return c
}

func (c counters) minus(b counters) counters {
	r := c.router
	r.SingleShard -= b.router.SingleShard
	r.Reroutes -= b.router.Reroutes
	r.CrossShard -= b.router.CrossShard
	r.CrossShardRetries -= b.router.CrossShardRetries
	r.CrossShardAborts -= b.router.CrossShardAborts
	r.CrossShardApplyLost -= b.router.CrossShardApplyLost
	r.FencedKeys -= b.router.FencedKeys
	return counters{
		aborted:      c.aborted - b.aborted,
		stashed:      c.stashed - b.stashed,
		retries:      c.retries - b.retries,
		phaseChanges: c.phaseChanges - b.phaseChanges,
		fenceAborts:  c.fenceAborts - b.fenceAborts,
		walRecords:   c.walRecords - b.walRecords,
		checkpoints:  c.checkpoints - b.checkpoints,
		router:       r,
	}
}

// window is one measured interval.
type window struct {
	rec   *recorder
	delta counters
	smp   samples
}

func (w window) perTxn(n uint64) float64 {
	if w.rec.acked == 0 {
		return 0
	}
	return float64(n) / float64(w.rec.acked)
}

// samples is what the traced window's 1 ms sampler saw.
type samples struct {
	ticks, split int
	walBytes     int64
}

// sampler polls every database's phase and log position once a
// millisecond. It runs only in the traced window.
func sampler(sys system, stop <-chan struct{}, out *samples) {
	dbs, dirs := sys.dbs(), sys.logDirs()
	pos := make([]doppel.LogPosition, len(dbs))
	for i, db := range dbs {
		pos[i] = db.LogPosition()
	}
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		out.ticks++
		split := false
		for i, db := range dbs {
			split = split || db.Internal().Phase() == core.PhaseSplit
			if dirs != nil {
				p := db.LogPosition()
				out.walBytes += logBytes(dirs[i], pos[i], p)
				pos[i] = p
			}
		}
		if split {
			out.split++
		}
	}
}

func measureWindow(g *gen, sys system, warm *recorder, d time.Duration, traced bool) window {
	w := window{rec: newRecorder(warm, d, subWindow)}
	c0 := readCounters(sys)
	var (
		stop chan struct{}
		wg   sync.WaitGroup
	)
	if traced {
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampler(sys, stop, &w.smp)
		}()
	}
	g.measure(w.rec, d)
	if traced {
		close(stop)
		wg.Wait()
	}
	w.delta = readCounters(sys).minus(c0)
	return w
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run produced, before it is shaped into a
// report.
type outcome struct {
	setups   []float64
	main     window  // end-to-end window (untraced)
	traced   *window // traced window, --trace 1 only
	spans    spanStats
	dropped  int64
	direct   directResult
	layers   map[string]float64
	errs     []error
	checks   int
	spanFile string
}

const (
	drainLimit = 30 * time.Second
	closeLimit = 30 * time.Second
	// subWindow cuts a measured window into parts; an end-to-end metric
	// is the median of its per-part values, so a burst of host steal, a
	// GC cycle or a checkpoint moves one part, not the result.
	subWindow = 500 * time.Millisecond
)

func run(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	sys, err := newSystem(cfg, tr)
	if err != nil {
		return nil, err
	}
	root := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)
	out := &outcome{layers: map[string]float64{}}
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := sys.open(dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		freeMemory() // every run's load starts from a collected heap
		if i == cfg.setups-1 {
			break
		}
		if err := bounded("set-up teardown", closeLimit, sys.close); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	window, openRate := sys.params()
	g := newGen(sys, cfg.seed, window, openRate, tr)
	g.submit = sys.submitter(g)
	g.dropAcks = cfg.dropAcks
	warm := &recorder{}
	g.measure(warm, cfg.warmup)
	if !cfg.trace {
		out.main = measureWindow(g, sys, warm, dur(cfg.seconds), false)
	} else {
		// The untraced half is the baseline trace.overhead_frac compares
		// against; the traced half records spans: a root and about two
		// bodies per transaction at most, with room to spare.
		half := dur(cfg.seconds / 2)
		out.main = measureWindow(g, sys, warm, half, false)
		tr.reserve(int(4*float64(warm.acked)*half.Seconds()/warm.seconds()) + 1024)
		g.tracing = true
		tw := measureWindow(g, sys, warm, half, true)
		g.tracing = false
		out.traced = &tw
	}
	if err := g.drain(drainLimit); err != nil {
		return nil, err
	}
	if g.opErrs > 0 {
		out.errs = append(out.errs, fmt.Errorf("%d operations failed, e.g. %v", g.opErrs, g.errSample))
	}
	out.checks++
	checkWin := out.main
	if out.traced != nil {
		checkWin = *out.traced
	}
	checkErrs := sys.check(checkWin)
	out.checks++
	out.errs = append(out.errs, checkErrs...)
	if err := bounded("close", closeLimit, sys.close); err != nil {
		return nil, err
	}
	if cfg.tamper != nil {
		cfg.tamper(sys)
	}
	out.errs = append(out.errs, sys.post(g)...)
	out.checks++
	if tr != nil {
		out.spans = analyze(tr.recorded())
		if lr, ok := sys.(layerReporter); ok {
			lr.layers(out.layers, out.spans)
		}
		out.dropped = tr.dropped.Load()
		out.spanFile = filepath.Join(cfg.dir, "spans-"+cfg.workload+".bin")
		if err := tr.write(out.spanFile); err != nil {
			return nil, err
		}
		freeMemory()
		d, err := directDrive(sys, cfg, g, out.main)
		if err != nil {
			return nil, err
		}
		out.direct = d
	}
	return out, nil
}

// peakRSSMB is the largest resident set size sampled at r's marks, in
// MiB: the memory the program holds while it serves the load, apart
// from the set-up's transient peak.
func peakRSSMB(r *recorder) float64 {
	var peak int64
	for _, m := range r.marks {
		peak = max(peak, m.rss)
	}
	return float64(peak) / (1 << 20)
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// part is one sub-window's end-to-end values.
type part struct {
	steal                        float64
	tps, w50, w90, r90, cpu, all float64
	hasReads                     bool
}

// parts computes the end-to-end values of each sub-window of r from its
// exact samples, skipping the window's short tail and any sub-window
// with nothing acknowledged.
func parts(r *recorder) []part {
	var ps []part
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		n := b.acked - a.acked
		if b.at-a.at < r.every/2 || n == 0 {
			continue
		}
		writes := slices.Clone(r.writes[a.writes:b.writes])
		p := part{
			steal: float64(b.steal-a.steal) / float64(max(1, b.ticks-a.ticks)),
			tps:   float64(n) / (float64(b.at-a.at) / 1e9),
			w50:   us(percentile(writes, 0.50)),
			w90:   us(percentile(writes, 0.90)),
			cpu:   float64(b.cpu-a.cpu) / 1e3 / float64(n),
			all:   float64(b.allocs-a.allocs) / float64(n),
		}
		if b.reads > a.reads {
			p.hasReads = true
			p.r90 = us(percentile(slices.Clone(r.reads[a.reads:b.reads]), 0.90))
		}
		ps = append(ps, p)
	}
	return ps
}

// quietSteal is the steal share at or below which a part always counts:
// /proc/stat counts in 10 ms ticks, so over a 500 ms part on two vCPUs
// this is two ticks.
const quietSteal = 0.02

// leastStolen drops the parts in which the host stole more CPU time
// from this machine's vCPUs than in the median part, keeping every part
// at or below quietSteal. Steal on a shared host comes and goes within
// a run; the program's own cost does not.
func leastStolen(ps []part) []part {
	steals := make([]float64, len(ps))
	for i, p := range ps {
		steals[i] = p.steal
	}
	limit := max(median(steals), quietSteal)
	var keep []part
	for _, p := range ps {
		if p.steal <= limit {
			keep = append(keep, p)
		}
	}
	return keep
}

// endToEnd shapes the untraced window into the end-to-end metrics: each
// is the median, over the window's least-stolen sub-windows, of the
// value computed from that sub-window's samples.
func endToEnd(o *outcome) map[string]metric {
	var tps, w50, w90, r90, cpu, allocs []float64
	for _, p := range leastStolen(parts(o.main.rec)) {
		tps = append(tps, p.tps)
		w50 = append(w50, p.w50)
		w90 = append(w90, p.w90)
		if p.hasReads {
			r90 = append(r90, p.r90)
		}
		cpu = append(cpu, p.cpu)
		allocs = append(allocs, p.all)
	}
	return map[string]metric{
		"setup_s":        {median(o.setups), "s"},
		"txn_per_s":      {median(tps), "1/s"},
		"write_p50_us":   {median(w50), "us"},
		"write_p90_us":   {median(w90), "us"},
		"read_p90_us":    {median(r90), "us"},
		"cpu_us_per_txn": {median(cpu), "us"},
		"allocs_per_txn": {median(allocs), "count"},
		"peak_rss_mb":    {peakRSSMB(o.main.rec), "MB"},
	}
}

// perLayer shapes the traced window, its spans, the direct drive and the
// untraced baseline into the per-layer metrics. A layer a workload does
// not pass through reports 0.
func perLayer(o *outcome) map[string]metric {
	t, base := *o.traced, o.main
	d := t.delta
	sp := o.spans
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sec := t.rec.seconds()
	tps := float64(t.rec.acked) / sec
	baseTPS := float64(base.rec.acked) / base.rec.seconds()

	set("core.body_p50_us", "us", us(percentile(sp.body, 0.5)))
	set("core.body_execs_per_txn", "count", ratio(float64(sp.bodies), float64(sp.roots)))
	set("core.aborts_per_txn", "count", t.perTxn(d.aborted))
	set("core.stashed_per_txn", "count", t.perTxn(d.stashed))
	set("core.retries_per_txn", "count", t.perTxn(d.retries))
	set("core.phase_changes_per_s", "1/s", float64(d.phaseChanges)/sec)
	set("core.split_frac", "frac", ratio(float64(t.smp.split), float64(t.smp.ticks)))
	set("core.direct_txn_per_s", "1/s", o.direct.tps)
	set("core.direct_cpu_us_per_txn", "us", o.direct.cpuUs)

	set("doppel.queue_wait_p50_us", "us", us(percentile(sp.queue, 0.5)))
	set("doppel.queue_wait_p90_us", "us", us(percentile(sp.queue, 0.9)))
	set("doppel.ack_wait_p50_us", "us", us(percentile(sp.ack, 0.5)))
	set("doppel.ack_wait_p90_us", "us", us(percentile(sp.ack, 0.9)))

	r := d.router
	routed := float64(r.SingleShard + r.CrossShard)
	set("router.cross_frac", "frac", ratio(float64(r.CrossShard), routed))
	set("router.reroutes_per_txn", "count", t.perTxn(r.Reroutes))
	set("router.prepare_retries_per_cross", "count", ratio(float64(r.CrossShardRetries), float64(r.CrossShard)))
	set("router.fenced_keys_per_cross", "count", ratio(float64(r.FencedKeys), float64(r.CrossShard)))
	set("router.fence_aborts_per_txn", "count", t.perTxn(d.fenceAborts))
	single, cross := sp.single, sp.cross
	if routed == 0 {
		single, cross = nil, nil // no router on this workload's path
	}
	set("router.single_p50_us", "us", us(percentile(single, 0.5)))
	set("router.cross_p50_us", "us", us(percentile(cross, 0.5)))
	set("router.cross_p90_us", "us", us(percentile(cross, 0.9)))

	set("wal.records_per_txn", "count", t.perTxn(d.walRecords))
	set("wal.bytes_per_txn", "B", ratio(float64(t.smp.walBytes), float64(t.rec.acked)))
	set("checkpoint.count", "count", float64(d.checkpoints))
	for _, l := range []struct{ name, unit string }{
		{"wal.recover_ms", "ms"},
		{"checkpoint.barrier_us", "us"},
		{"checkpoint.walk_ms", "ms"},
		{"checkpoint.snapshot_mb", "MB"},
		{"server.req_p50_us", "us"},
		{"server.req_p90_us", "us"},
		{"server.in_p50_us", "us"},
		{"server.out_p50_us", "us"},
	} {
		set(l.name, l.unit, o.layers[l.name])
	}

	set("loadgen.write_p99_us", "us", us(percentile(base.rec.writes, 0.99)))
	set("loadgen.read_p50_us", "us", us(percentile(base.rec.reads, 0.5)))
	set("loadgen.read_p99_us", "us", us(percentile(base.rec.reads, 0.99)))
	set("loadgen.read_late_p99_us", "us", us(percentile(base.rec.late, 0.99)))
	set("env.steal_frac", "frac", stealFrac(base.rec.first(), base.rec.last()))
	set("runtime.gc_per_s", "1/s", float64(base.rec.last().gcs-base.rec.first().gcs)/base.rec.seconds())
	set("trace.overhead_frac", "frac", 1-ratio(tps, baseTPS))
	return m
}

func main() {
	var (
		name    = flag.String("workload", "", "hot-counter, like-wire or transfer-durable")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := defaultConfig(*name, *seed, float64(*seconds), *trace == 1)
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := shape(cfg, o)
	printEnv(cfg, o)
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func shape(cfg config, o *outcome) report {
	rep := report{Correct: len(o.errs) == 0}
	rec := o.main.rec
	rep.Attempted = rec.acked + rec.failed + int64(o.checks)
	rep.Failed = rec.failed + int64(len(o.errs))
	if o.traced != nil {
		rep.Attempted += o.traced.rec.acked + o.traced.rec.failed
		rep.Failed += o.traced.rec.failed
		rep.Metrics = perLayer(o)
	} else {
		rep.Metrics = endToEnd(o)
	}
	return rep
}

// printEnv prints the run's environment record and a readable metric
// table ahead of the result line.
func printEnv(cfg config, o *outcome) {
	commit, tree := sourceID(".")
	env := map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"commit":           commit,
		"source_sha256":    tree,
		"go":               runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu":              cpuModel(),
		"steal_frac":       stealFrac(o.main.rec.first(), o.main.rec.last()),
		"read_late_p99_us": us(percentile(o.main.rec.late, 0.99)),
		"acked":            o.main.rec.acked,
		"setup_s":          o.setups,
		"wal":              "files under " + cfg.dir + " (the checkout); see README.md for the flush policy",
	}
	if o.spanFile != "" {
		env["span_file"] = o.spanFile
		env["spans_dropped"] = o.dropped
	}
	b, _ := json.Marshal(env)
	fmt.Println("env", string(b))
}

// logBytes is how far a log moved from prev to cur. When a checkpoint
// rotated the log in between, the rest of the sealed segment is read
// from its file size; a segment already collected counts only up to
// prev, so the figure is a lower bound.
func logBytes(dir string, prev, cur doppel.LogPosition) int64 {
	if cur.Seq == prev.Seq {
		return cur.Offset - prev.Offset
	}
	n := cur.Offset
	if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%08d.log", prev.Seq))); err == nil {
		n += fi.Size() - prev.Offset
	}
	return n
}
