package bench

import (
	"fmt"
	"io"

	"doppel/internal/core"
	"doppel/internal/workload"
)

// Ablations isolate the contribution of individual design decisions in
// the phase reconciliation machinery. They are not experiments from the
// paper; each sweeps one core.Config field around its default.

var (
	extendPoints    = []int{0, 1, 2, 4, 8, 16}
	hurryPoints     = []float64{0.25, 0.5, 0.75, 1.0}
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

// AblationHurry measures hurrying the joined phase when stashes pile up:
// it trades split-phase batching for read latency.
func AblationHurry(w io.Writer, cfg ExpConfig) error {
	x := newExp(cfg)
	ld := x.like(1.4, 0.5)
	fmt.Fprintf(w, "# Ablation: hurry fraction (LIKE 50/50, alpha=1.4); %s\n", x)
	fmt.Fprintf(w, "%-16s %12s %16s %14s\n", "hurry-frac", "Mtxn/s", "mean-read(us)", "p99-read(us)")
	for _, hf := range hurryPoints {
		p := x.measure("doppel", ld, func(c *core.Config) { c.HurryFraction = hf })
		r := p.Stats.ReadLatency
		fmt.Fprintf(w, "%-16.2f %12.3f %16.1f %14.1f\n", hf, mtps(p), us(r.Mean()), us(float64(r.Quantile(0.99))))
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
		fmt.Fprintf(w, "%-16.0f %12.3f %12d %12d\n", dom, mtps(p), len(p.split), p.Stats.Stashed)
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
