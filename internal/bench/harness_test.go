package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"doppel/internal/core"
	"doppel/internal/occ"
	"doppel/internal/store"
	"doppel/internal/workload"
)

func TestRunLoadOCC(t *testing.T) {
	st := store.New()
	e := occ.New(st, 2)
	ks := workload.NewKeySpace('k', 1000)
	for i := 0; i < ks.N(); i++ {
		st.Preload(ks.Key(i), store.IntValue(0))
	}
	gen := &workload.Incr1{Keys: ks, HotKey: 0, HotFrac: 0.2}
	res := RunLoad(e, gen, Options{Duration: 100 * time.Millisecond, Seed: 1})
	if res.Stats.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	// Conservation: the sum of all counters equals committed increments.
	var total int64
	st.Range(func(k string, rec *store.Record) bool {
		n, _ := rec.Value().AsInt()
		total += n
		return true
	})
	if total != int64(res.Stats.Committed) {
		t.Fatalf("total %d != commits %d", total, res.Stats.Committed)
	}
}

func TestRunLoadDoppel(t *testing.T) {
	st := store.New()
	cfg := core.DefaultConfig(2)
	cfg.PhaseLength = 2 * time.Millisecond
	cfg.SplitMinConflicts = 2
	cfg.SplitFraction = 0.0001
	db := core.Open(st, cfg)
	ks := workload.NewKeySpace('k', 100)
	for i := 0; i < ks.N(); i++ {
		st.Preload(ks.Key(i), store.IntValue(0))
	}
	gen := &workload.Incr1{Keys: ks, HotKey: 0, HotFrac: 0.9}
	res := RunLoad(db, gen, Options{Duration: 150 * time.Millisecond, Seed: 7})
	db.Close()
	if res.Stats.Committed == 0 {
		t.Fatal("no commits")
	}
	var total int64
	st.Range(func(k string, rec *store.Record) bool {
		n, _ := rec.Value().AsInt()
		total += n
		return true
	})
	// Every committed or stashed-then-committed increment must be
	// reflected exactly once after Close.
	if total != int64(res.Stats.Committed) {
		t.Fatalf("total %d != commits %d (stashed %d)", total, res.Stats.Committed, res.Stats.Stashed)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "table1", "table2", "table3", "table4",
		"ablation-extend", "ablation-hurry", "ablation-dominance",
		"ablation-maxkeys"}
	names := ExperimentNames()
	if len(names) != len(want) {
		t.Fatalf("experiments: %v", names)
	}
	for _, n := range want {
		if Experiments[n] == nil {
			t.Fatalf("missing experiment %s", n)
		}
	}
	for _, n := range paperOrder {
		if Experiments[n] == nil {
			t.Fatalf("paper order names unknown experiment %s", n)
		}
	}
}

func TestTable1MatchesPaperDigits(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, ExpConfig{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Spot-check against the paper's printed values. The paper rounds to
	// 6.953 / 32.30 / 60.80; the analytic values land within 0.1%.
	for _, want := range []string{"6.94", "32.30", "60.79"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// table is one printed table: its title line and its row count.
type table struct {
	title string
	rows  int
}

// parseTables splits driver output into tables. A table is one or more
// "# " lines, a column header, then rows; every row must have as many
// fields as the header. Blank lines separate tables.
func parseTables(t *testing.T, out string) []table {
	t.Helper()
	var tables []table
	var header int
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, line := range lines {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# "):
			if i == 0 || !strings.HasPrefix(lines[i-1], "# ") {
				tables = append(tables, table{title: line, rows: -1})
			}
		case len(tables) == 0:
			t.Fatalf("output does not start with a title:\n%s", out)
		case tables[len(tables)-1].rows < 0:
			header = len(strings.Fields(line))
			tables[len(tables)-1].rows = 0
		default:
			if n := len(strings.Fields(line)); n != header {
				t.Fatalf("row %q has %d fields, header %d:\n%s", line, n, header, out)
			}
			tables[len(tables)-1].rows++
		}
	}
	return tables
}

// TestSmallExperimentRuns runs every experiment driver at a tiny size.
// Each must print its title, a column header and one row per sweep
// point, and no INCR1/INCRZ point may break conservation (the driver's
// error).
func TestSmallExperimentRuns(t *testing.T) {
	cfg := ExpConfig{Workers: 2, Records: 2000, Seed: 3, Duration: 2 * time.Millisecond}
	phases := []table{
		{"# Figure 13:", len(phasePoints)},
		{"# Figure 14:", len(phasePoints)},
	}
	want := map[string][]table{
		"fig8":               {{"# Figure 8:", len(hotFracs)}},
		"fig9":               {{"# Figure 9:", len(fig9Workers())}},
		"fig10":              {{"# Figure 10:", fig10Buckets}},
		"fig11":              {{"# Figure 11:", len(alphas)}},
		"table1":             {{"# Table 1:", len(alphas)}},
		"table2":             {{"# Table 2:", len(table2Alphas)}},
		"fig12":              {{"# Figure 12:", len(writeFracs)}},
		"table3":             {{"# Table 3:", 2 * len(threeEngines)}},
		"fig13":              phases,
		"fig14":              phases,
		"table4":             {{"# Table 4:", len(threeEngines)}},
		"fig15":              {{"# Figure 15:", len(rubisAlphas)}},
		"ablation-extend":    {{"# Ablation: split-phase extension", len(extendPoints)}},
		"ablation-hurry":     {{"# Ablation: hurry fraction", len(hurryPoints)}},
		"ablation-dominance": {{"# Ablation: read-dominance veto", len(dominancePoints)}},
		"ablation-maxkeys":   {{"# Ablation: MaxSplitKeys", len(maxKeysPoints)}},
	}
	if len(want) != len(Experiments) {
		t.Fatalf("smoke test covers %d experiments, registry has %d", len(want), len(Experiments))
	}
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Experiments[name](&buf, cfg); err != nil {
				t.Fatal(err)
			}
			got := parseTables(t, buf.String())
			if len(got) != len(want[name]) {
				t.Fatalf("%d tables, want %d:\n%s", len(got), len(want[name]), buf.String())
			}
			for i, tb := range want[name] {
				if !strings.HasPrefix(got[i].title, tb.title) || got[i].rows != tb.rows {
					t.Fatalf("table %d: %q with %d rows, want %q with %d:\n%s",
						i, got[i].title, got[i].rows, tb.title, tb.rows, buf.String())
				}
			}
		})
	}
}

// TestConservationViolationReported checks that the drivers' INCR
// conservation check fires: a counter no transaction wrote must make
// the sum disagree with Committed.
func TestConservationViolationReported(t *testing.T) {
	ks := workload.NewKeySpace('k', 10)
	ld := incr1(ks, 0)
	ld.preload = func(st *store.Store) {
		counters(ks)(st)
		st.Preload(ks.Key(3), store.IntValue(1))
	}
	x := newExp(ExpConfig{Workers: 1, Records: 100, Duration: time.Millisecond})
	x.measure("occ", ld, nil)
	if x.err == nil || !strings.Contains(x.err.Error(), "conservation violated") {
		t.Fatalf("err = %v, want a conservation violation", x.err)
	}
}
