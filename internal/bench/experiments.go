package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"doppel/internal/atomiceng"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/occ"
	"doppel/internal/rng"
	"doppel/internal/rubis"
	"doppel/internal/store"
	"doppel/internal/twopl"
	"doppel/internal/workload"
)

// ExpConfig sizes the experiment drivers. The zero value is filled with
// the paper's 1M keys, GOMAXPROCS workers and one second per measured
// point.
type ExpConfig struct {
	Workers  int
	Records  int
	Seed     uint64
	Duration time.Duration // per measured point
}

func (c ExpConfig) norm() ExpConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Records <= 0 {
		c.Records = 1_000_000
	}
	c.Records = max(c.Records, 100) // INCR1 needs a cold key, LIKE a user and a page, RUBiS an auction
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	return c
}

// String describes the configuration for table titles.
func (c ExpConfig) String() string {
	return fmt.Sprintf("%d workers, %d keys, %v per point", c.Workers, c.Records, c.Duration)
}

// exp is one driver's run: its normalised configuration and the first
// conservation violation any of its points saw.
type exp struct {
	ExpConfig
	err error
}

func newExp(cfg ExpConfig) *exp { return &exp{ExpConfig: cfg.norm()} }

var (
	allEngines   = []string{"doppel", "occ", "2pl", "atomic"}
	threeEngines = allEngines[:3]
)

// Open builds the named engine ("doppel", "occ", "2pl" or "atomic")
// over a fresh store filled by preload. tune, when non-nil, adjusts
// Doppel's configuration; the baselines have none. It collects garbage
// before returning, so that the previous run's is not charged to this
// one.
func Open(name string, workers int, preload func(*store.Store), tune func(*core.Config)) (engine.Engine, *store.Store) {
	st := store.New()
	preload(st)
	runtime.GC()
	switch name {
	case "doppel":
		cfg := core.DefaultConfig(workers)
		if tune != nil {
			tune(&cfg)
		}
		return core.Open(st, cfg), st
	case "occ":
		return occ.New(st, workers), st
	case "2pl":
		return twopl.New(st, workers), st
	case "atomic":
		return atomiceng.New(st, workers), st
	}
	panic("bench: unknown engine " + name)
}

// load is one workload: how to fill a fresh store and what to run on it.
type load struct {
	preload func(*store.Store)
	gen     workload.Generator
	// counted marks INCR loads: every commit adds 1 to a preloaded
	// counter, so after the run the counters must sum to Committed.
	counted bool
}

func counters(ks *workload.KeySpace) func(*store.Store) {
	return func(st *store.Store) {
		for i := 0; i < ks.N(); i++ {
			st.Preload(ks.Key(i), store.IntValue(0))
		}
	}
}

func incr1(ks *workload.KeySpace, hot float64) load {
	return load{counters(ks), &workload.Incr1{Keys: ks, HotFrac: hot}, true}
}

func incrZ(ks *workload.KeySpace, z *workload.Zipf) load {
	return load{counters(ks), &workload.IncrZ{Keys: ks, Zipf: z}, true}
}

// like builds LIKE over Records/2 users and Records/2 pages whose
// popularity follows Zipf(alpha).
func (x *exp) like(alpha, writeFrac float64) load {
	users := workload.NewKeySpace('u', x.Records/2)
	pages := workload.NewKeySpace('p', x.Records/2)
	preload := func(st *store.Store) {
		for i := 0; i < users.N(); i++ {
			st.Preload(users.Key(i), store.BytesValue(nil))
			st.Preload(pages.Key(i), store.IntValue(0))
		}
	}
	z := workload.NewZipf(pages.N(), alpha)
	return load{preload, &workload.Like{Users: users, Pages: pages, PageZipf: z, WriteFrac: writeFrac}, false}
}

func (x *exp) auctions() int64 { return max(int64(x.Records)*33/1000, 1) }

func (x *exp) rubisSize() string {
	return fmt.Sprintf("%d workers, %d users, %d auctions, %v per point", x.Workers, x.Records, x.auctions(), x.Duration)
}

// rubis builds RUBiS over Records users and Records×33/1000 auctions
// (the paper's 1M users and 33k auctions at the default size). alpha < 0
// selects the RUBiS-B bidding mix, otherwise RUBiS-C with that Zipf
// parameter. Every engine runs the Figure 7 (commutative) transactions.
func (x *exp) rubis(alpha float64) load {
	app := rubis.NewApp(int64(x.Records), x.auctions(), x.Workers)
	mix := rubis.NewMixB(app, true)
	if alpha >= 0 {
		mix = rubis.NewMixC(app, alpha, true)
	}
	return load{app.Preload, mix, false}
}

// point is one measured run of one engine.
type point struct {
	Result
	split        []string // Doppel's split keys at the end of the run
	phaseChanges uint64
}

// measure runs ld on a fresh engine for x.Duration.
func (x *exp) measure(name string, ld load, tune func(*core.Config)) point {
	e, st := Open(name, x.Workers, ld.preload, tune)
	p := point{Result: RunLoad(e, ld.gen, Options{Duration: x.Duration, Seed: x.Seed})}
	if db, ok := e.(*core.DB); ok {
		p.split = db.SplitKeys()
		p.phaseChanges = db.PhaseChanges()
	}
	x.stop(e, st, ld)
	return p
}

// stop stops e and, on a counted load, records the first conservation
// violation in x.err.
func (x *exp) stop(e engine.Engine, st *store.Store, ld load) {
	e.Stop()
	if !ld.counted || x.err != nil {
		return
	}
	var total int64
	st.Range(func(_ string, rec *store.Record) bool {
		n, _ := rec.Value().AsInt()
		total += n
		return true
	})
	var committed uint64
	for w := 0; w < e.Workers(); w++ {
		committed += e.WorkerStats(w).Committed
	}
	if total != int64(committed) {
		x.err = fmt.Errorf("bench: conservation violated on %s: counters sum to %d, %d commits", e.Name(), total, committed)
	}
}

// engineRow measures ld on each engine, prints their throughputs and
// returns Doppel's split-key count.
func (x *exp) engineRow(w io.Writer, engines []string, ld load) (split int) {
	for _, e := range engines {
		p := x.measure(e, ld, nil)
		fmt.Fprintf(w, " %10.3f", mtps(p))
		if e == "doppel" {
			split = len(p.split)
		}
	}
	return split
}

func mtps(p point) float64 { return p.Throughput / 1e6 }

func us(ns float64) float64 { return ns / 1000 }

// Sweep points, shared with the smoke test.
var (
	hotFracs     = []float64{0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.80, 1.00}
	alphas       = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	table2Alphas = []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	writeFracs   = []float64{0.0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.80, 1.00}
	phasePoints  = []int{1, 2, 5, 10, 20, 40, 60, 80, 100} // ms
	rubisAlphas  = []float64{0, 0.4, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
)

// fig10Buckets and fig10Every shape Figure 10: the hot key moves every
// fig10Every buckets of one point's duration each (the paper: every 5 s
// over 90 s).
const (
	fig10Buckets = 30
	fig10Every   = 5
)

// Fig8 regenerates Figure 8: INCR1 total throughput vs. the percentage
// of transactions writing the single hot key.
func Fig8(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Figure 8: INCR1 throughput (Mtxns/sec) vs %% hot-key txns; %s\n", x)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %12s\n", "hot%", "doppel", "occ", "2pl", "atomic", "doppel-split")
	for _, hot := range hotFracs {
		fmt.Fprintf(w, "%-8.0f", hot*100)
		fmt.Fprintf(w, " %12d\n", x.engineRow(w, allEngines, incr1(ks, hot)))
	}
	return x.err
}

// fig9Workers doubles from 1 up to GOMAXPROCS, which it always ends on.
func fig9Workers() []int {
	n := runtime.GOMAXPROCS(0)
	var out []int
	for k := 1; k < n; k *= 2 {
		out = append(out, k)
	}
	return append(out, n)
}

// Fig9 regenerates Figure 9: INCR1 per-worker throughput at 100% hot-key
// writes as the worker count grows to GOMAXPROCS.
func Fig9(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Figure 9: INCR1 per-worker throughput (Mtxns/sec/worker), 100%% hot key; %d keys, %v per point\n", x.Records, x.Duration)
	fmt.Fprintf(w, "# this host has %d CPUs (GOMAXPROCS %d); the paper's curve runs to 80 cores and cannot be reproduced here\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s\n", "workers", "doppel", "occ", "2pl", "atomic")
	for _, n := range fig9Workers() {
		x.Workers = n
		fmt.Fprintf(w, "%-8d", n)
		for _, e := range allEngines {
			fmt.Fprintf(w, " %10.3f", mtps(x.measure(e, incr1(ks, 1.0), nil))/float64(n))
		}
		fmt.Fprintln(w)
	}
	return x.err
}

// movingHot is INCR1 whose hot key advances every `every` nanoseconds
// since start (Figure 10's changing workload).
type movingHot struct {
	keys    *workload.KeySpace
	start   int64
	every   int64
	hotFrac float64
}

func (g *movingHot) Next(worker int, r *rng.Rand) (engine.TxFunc, bool) {
	hot := int((engine.Now()-g.start)/g.every) % g.keys.N()
	inc := workload.Incr1{Keys: g.keys, HotKey: hot, HotFrac: g.hotFrac}
	return inc.Next(worker, r)
}

// Fig10 regenerates Figure 10: throughput over time while the identity
// of the hot key changes. Each engine runs fig10Buckets consecutive
// points on one store; a bucket's throughput is its commits over its
// elapsed time.
func Fig10(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Figure 10: INCR1 throughput over time (Mtxns/sec); 10%% hot, hot key changes every %v; %s\n",
		fig10Every*x.Duration, x)
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "t(ms)", "doppel", "occ", "2pl")
	series := make([][]float64, len(threeEngines))
	for i, name := range threeEngines {
		ld := load{preload: counters(ks), counted: true}
		e, st := Open(name, x.Workers, ld.preload, nil)
		ld.gen = &movingHot{keys: ks, start: engine.Now(), every: int64(fig10Every * x.Duration), hotFrac: 0.10}
		var prev uint64
		for b := 0; b < fig10Buckets; b++ {
			res := RunLoad(e, ld.gen, Options{Duration: x.Duration, Seed: x.Seed + uint64(b)})
			series[i] = append(series[i], float64(res.Stats.Committed-prev)/res.Elapsed.Seconds()/1e6)
			prev = res.Stats.Committed
		}
		x.stop(e, st, ld)
	}
	for b := 0; b < fig10Buckets; b++ {
		fmt.Fprintf(w, "%-8d", (time.Duration(b) * x.Duration).Milliseconds())
		for i := range threeEngines {
			fmt.Fprintf(w, " %10.3f", series[i][b])
		}
		fmt.Fprintln(w)
	}
	return x.err
}

// Fig11 regenerates Figure 11: INCRZ total throughput vs. the Zipfian
// exponent alpha.
func Fig11(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Figure 11: INCRZ throughput (Mtxns/sec) vs alpha; %s\n", x)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %12s\n", "alpha", "doppel", "occ", "2pl", "atomic", "doppel-split")
	for _, alpha := range alphas {
		fmt.Fprintf(w, "%-8.1f", alpha)
		fmt.Fprintf(w, " %12d\n", x.engineRow(w, allEngines, incrZ(ks, workload.NewZipf(x.Records, alpha))))
	}
	return x.err
}

// Table1 regenerates Table 1 exactly: the percentage of writes to the
// 1st, 2nd, 10th and 100th most popular keys under Zipfian popularity
// with 1M keys. This is analytic, not measured.
func Table1(w io.Writer, cfg ExpConfig) error {
	fmt.Fprintf(w, "# Table 1: %% of writes to the kth most popular key (1M keys)\n")
	fmt.Fprintf(w, "%-6s %9s %9s %9s %9s\n", "alpha", "1st", "2nd", "10th", "100th")
	for _, alpha := range alphas {
		z := workload.NewZipf(1_000_000, alpha)
		fmt.Fprintf(w, "%-6.1f %9.4f %9.4f %9.4f %9.4f\n",
			alpha, z.Prob(0)*100, z.Prob(1)*100, z.Prob(9)*100, z.Prob(99)*100)
	}
	return nil
}

// Table2 regenerates Table 2: the number of keys Doppel moves to split
// data and the percentage of requests they cover, per alpha.
func Table2(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Table 2: keys moved to split data (INCRZ); %s\n", x)
	fmt.Fprintf(w, "%-8s %8s %8s\n", "alpha", "#moved", "%reqs")
	for _, alpha := range table2Alphas {
		z := workload.NewZipf(x.Records, alpha)
		p := x.measure("doppel", incrZ(ks, z), nil)
		var cover float64
		for _, k := range p.split {
			i, _ := strconv.Atoi(k[1:]) // KeySpace keys are a prefix byte and the index
			cover += z.Prob(i)
		}
		fmt.Fprintf(w, "%-8.1f %8d %8.1f\n", alpha, len(p.split), cover*100)
	}
	return x.err
}

// Fig12 regenerates Figure 12: LIKE throughput vs. the percentage of
// transactions that write, alpha = 1.4.
func Fig12(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	fmt.Fprintf(w, "# Figure 12: LIKE throughput (Mtxns/sec) vs %% writes; alpha=1.4, %s\n", x)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %12s\n", "write%", "doppel", "occ", "2pl", "doppel-split")
	for _, wf := range writeFracs {
		fmt.Fprintf(w, "%-8.0f", wf*100)
		fmt.Fprintf(w, " %12d\n", x.engineRow(w, threeEngines, x.like(1.4, wf)))
	}
	return x.err
}

// Table3 regenerates Table 3: mean and 99th percentile read/write
// latency plus throughput for the LIKE benchmark, uniform and skewed
// (alpha = 1.4), 50% reads.
func Table3(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	fmt.Fprintf(w, "# Table 3: LIKE latencies (microseconds) and throughput; 50%% reads, %s\n", x)
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s %10s\n", "workload/engine", "meanR", "meanW", "p99R", "p99W", "Mtxn/s")
	for _, skew := range []struct {
		name  string
		alpha float64
	}{{"uniform", 0}, {"skewed(a=1.4)", 1.4}} {
		ld := x.like(skew.alpha, 0.5)
		for _, e := range threeEngines {
			p := x.measure(e, ld, nil)
			r, wr := p.Stats.ReadLatency, p.Stats.WriteLatency
			fmt.Fprintf(w, "%-22s %10.1f %10.1f %10.1f %10.1f %10.3f\n", skew.name+"/"+e,
				us(r.Mean()), us(wr.Mean()), us(float64(r.Quantile(0.99))), us(float64(wr.Quantile(0.99))), mtps(p))
		}
	}
	return x.err
}

// Fig13And14 regenerates Figures 13 and 14 from one sweep: LIKE average
// read latency and throughput vs. phase length for a uniform workload,
// a skewed 50/50 workload and a skewed write-heavy workload.
func Fig13And14(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	loads := []load{x.like(0, 0.5), x.like(1.4, 0.5), x.like(1.4, 0.9)}
	lat := make([][]float64, len(phasePoints))
	tput := make([][]float64, len(phasePoints))
	for i, ms := range phasePoints {
		phase := time.Duration(ms) * time.Millisecond
		for _, ld := range loads {
			p := x.measure("doppel", ld, func(c *core.Config) { c.PhaseLength = phase })
			lat[i] = append(lat[i], us(p.Stats.ReadLatency.Mean()))
			tput[i] = append(tput[i], mtps(p))
		}
	}
	for i, fig := range []struct {
		title string
		rows  [][]float64
	}{{"Figure 13: LIKE average read latency (microseconds)", lat}, {"Figure 14: LIKE throughput (Mtxns/sec)", tput}} {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "# %s vs phase length (ms); %s; a phase longer than a point does not cycle\n", fig.title, x)
		fmt.Fprintf(w, "%-10s %12s %12s %14s\n", "phase(ms)", "uniform", "skewed", "skewed-wheavy")
		for i, ms := range phasePoints {
			r := fig.rows[i]
			fmt.Fprintf(w, "%-10d %12.3f %12.3f %14.3f\n", ms, r[0], r[1], r[2])
		}
	}
	return x.err
}

// Table4 regenerates Table 4: RUBiS-B and RUBiS-C (alpha = 1.8)
// throughput in millions of transactions per second.
func Table4(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	fmt.Fprintf(w, "# Table 4: RUBiS throughput (Mtxns/sec); %s\n", x.rubisSize())
	fmt.Fprintf(w, "%-8s %10s %10s\n", "engine", "RUBiS-B", "RUBiS-C")
	for _, e := range threeEngines {
		b := x.measure(e, x.rubis(-1), nil)
		c := x.measure(e, x.rubis(1.8), nil)
		fmt.Fprintf(w, "%-8s %10.3f %10.3f\n", e, mtps(b), mtps(c))
	}
	return x.err
}

// Fig15 regenerates Figure 15: RUBiS-C throughput vs. alpha.
func Fig15(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	fmt.Fprintf(w, "# Figure 15: RUBiS-C throughput (Mtxns/sec) vs alpha; %s\n", x.rubisSize())
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "alpha", "doppel", "occ", "2pl")
	for _, alpha := range rubisAlphas {
		fmt.Fprintf(w, "%-8.1f", alpha)
		x.engineRow(w, threeEngines, x.rubis(alpha))
		fmt.Fprintln(w)
	}
	return x.err
}

// Experiments maps experiment names to drivers, for the CLI. fig13 and
// fig14 name the same driver: both figures come from one sweep.
var Experiments = map[string]func(io.Writer, ExpConfig) error{
	"fig8":               Fig8,
	"fig9":               Fig9,
	"fig10":              Fig10,
	"fig11":              Fig11,
	"table1":             Table1,
	"table2":             Table2,
	"fig12":              Fig12,
	"table3":             Table3,
	"fig13":              Fig13And14,
	"fig14":              Fig13And14,
	"table4":             Table4,
	"fig15":              Fig15,
	"ablation-extend":    AblationExtend,
	"ablation-hurry":     AblationHurry,
	"ablation-dominance": AblationDominance,
	"ablation-maxkeys":   AblationMaxKeys,
}

// paperOrder lists every driver once, in the paper's order and then the
// ablations; fig14 is absent because the fig13 driver prints it.
var paperOrder = []string{"fig8", "fig9", "fig10", "fig11", "table1", "table2",
	"fig12", "table3", "fig13", "table4", "fig15",
	"ablation-extend", "ablation-hurry", "ablation-dominance", "ablation-maxkeys"}

// All runs every experiment in paper order, separated by blank lines,
// and returns the first conservation violation.
func All(w io.Writer, cfg ExpConfig) error {
	var first error
	for _, name := range paperOrder {
		if err := Experiments[name](w, cfg); err != nil && first == nil {
			first = err
		}
		fmt.Fprintln(w)
	}
	return first
}

// ExperimentNames lists the experiment names in sorted order.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for n := range Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
