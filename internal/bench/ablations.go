package bench

import (
	"fmt"
	"io"
	"time"

	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/rng"
	"doppel/internal/workload"
)

// Ablations isolate the contribution of individual design decisions in
// the phase reconciliation machinery. They are not experiments from the
// paper; each sweeps one core.Config field around its default.

var (
	extendPoints    = []int{0, 1, 2, 4, 8, 16}
	budgetPoints    = []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	dominancePoints = []float64{1, 3, 10, 1e9}
	maxKeysPoints   = []int{1, 2, 4, 8, 64}
)

// AblationExtend measures the split-phase extension feedback (skip the
// barrier back to a joined phase while nothing is stashed): without it,
// a pure-write hot workload spends half its time in collapsed joined
// phases.
func AblationExtend(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Ablation: split-phase extension (INCR1 100%% hot); %s\n", x)
	fmt.Fprintf(w, "%-16s %12s %14s\n", "max-extends", "Mtxn/s", "phase-changes")
	for _, ext := range extendPoints {
		p := x.measure("doppel", incr1(ks, 1.0), func(c *core.Config) {
			c.MaxSplitExtend = ext
			if ext == 0 {
				c.MaxSplitExtend = -1 // zero selects the default; negative disables
			}
		})
		fmt.Fprintf(w, "%-16d %12.3f %14d\n", ext, mtps(p), p.phaseChanges)
	}
	return x.err
}

// hotReadEvery is how often each worker of AblationStashBudget reads
// the hot key: 1000 reads/s per worker, whatever became of the last one.
const hotReadEvery = int64(time.Millisecond)

// hotReads is INCR1 plus reads of the hot key on an open-loop schedule:
// a worker issues a read whenever hotReadEvery has passed since its
// last one, and an increment otherwise. A stashed read does not hold
// its worker, so the reads arrive at their rate whatever the phase.
type hotReads struct {
	incr workload.Incr1
	read engine.TxFunc
	next []int64 // per worker: when its next read is due
}

func newHotReads(ks *workload.KeySpace, workers int) *hotReads {
	key := ks.Key(0)
	return &hotReads{
		incr: workload.Incr1{Keys: ks, HotFrac: 0.5},
		read: func(tx engine.Tx) error { _, err := tx.GetInt(key); return err },
		next: make([]int64, workers),
	}
}

func (g *hotReads) Next(w int, r *rng.Rand) (engine.TxFunc, bool) {
	if now := engine.Now(); now >= g.next[w] {
		g.next[w] = now + hotReadEvery
		return g.read, false
	}
	return g.incr.Next(w, r)
}

// AblationStashBudget sweeps the stash budget, the longest a stashed
// read waits for a joined phase before the coordinator ends the split
// phase. It is the paper's phase-length trade (Figs. 13/14, Table 3) on
// the hinted hot counter: a short budget means short phases, so more
// barriers and reconciliations per second and less time for slices to
// absorb writes, in exchange for reads that wait less.
func AblationStashBudget(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	fmt.Fprintf(w, "# Ablation: stash budget (INCR1 50%% hot, hot key hinted, %d reads/s of it per worker); %s\n",
		int64(time.Second)/hotReadEvery, x)
	fmt.Fprintf(w, "%-12s %12s %14s %14s %14s\n", "budget(ms)", "Mtxn/s", "p50-read(us)", "p90-read(us)", "phase-changes")
	for _, b := range budgetPoints {
		ld := load{preload: counters(ks), gen: newHotReads(ks, x.Workers), counted: true, hint: ks.Key(0)}
		p := x.measure("doppel", ld, func(c *core.Config) { c.StashBudget = b })
		r := p.Stats.ReadLatency
		fmt.Fprintf(w, "%-12.1f %12.3f %14.1f %14.1f %14d\n", float64(b)/float64(time.Millisecond), mtps(p),
			us(float64(r.Quantile(0.5))), us(float64(r.Quantile(0.9))), p.phaseChanges)
	}
	return x.err
}

// AblationDominance measures the read-dominance veto that keeps
// read-mostly keys reconciled: with it disabled (huge threshold), Doppel
// splits keys whose readers then stash constantly.
func AblationDominance(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ld := x.like(1.4, 0.2)
	fmt.Fprintf(w, "# Ablation: read-dominance veto (LIKE 20%% writes, alpha=1.4); %s\n", x)
	fmt.Fprintf(w, "%-16s %12s %12s %12s\n", "dominance", "Mtxn/s", "split-keys", "stashes")
	for _, dom := range dominancePoints {
		p := x.measure("doppel", ld, func(c *core.Config) { c.ReadDominance = dom })
		fmt.Fprintf(w, "%-16.0f %12.3f %12d %12d\n", dom, mtps(p), len(p.split), p.Stats.Stashed.Load())
	}
	return x.err
}

// AblationMaxKeys bounds how many records may be split at once: too few
// leaves contended keys under OCC; extra capacity is free when the
// workload does not need it.
func AblationMaxKeys(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ks := workload.NewKeySpace('k', x.Records)
	ld := incrZ(ks, workload.NewZipf(x.Records, 1.4))
	fmt.Fprintf(w, "# Ablation: MaxSplitKeys (INCRZ alpha=1.4); %s\n", x)
	fmt.Fprintf(w, "%-16s %12s %12s\n", "max-keys", "Mtxn/s", "split-keys")
	for _, mk := range maxKeysPoints {
		p := x.measure("doppel", ld, func(c *core.Config) { c.MaxSplitKeys = mk })
		fmt.Fprintf(w, "%-16d %12.3f %12d\n", mk, mtps(p), len(p.split))
	}
	return x.err
}
