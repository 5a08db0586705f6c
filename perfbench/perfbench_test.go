package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"doppel"
	"doppel/internal/rng"
	"doppel/internal/store"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smallConfig shrinks a workload so one run takes a couple of seconds.
func smallConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 7, 1, trace)
	cfg.keys = map[string]int{"hot-counter": 20_000, "like-wire": 20_000, "transfer-durable": 5_000}[workload]
	cfg.setups = 2
	cfg.warmup = 200 * time.Millisecond
	cfg.dir = t.TempDir()
	return cfg
}

// TestSmoke runs every workload untraced and traced: every check must
// pass and every metric BENCHMARK.json names must be emitted with its
// unit.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := c.EndToEnd
			if trace {
				name, want = w.Name+"/traced", c.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig(t, w.Name, trace)
				o, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep := shape(cfg, o)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d errs=%v", rep.Correct, rep.Attempted, rep.Failed, o.errs)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					if fi, err := os.Stat(o.spanFile); err != nil || fi.Size() <= 16 {
						t.Errorf("span file %s: %v", o.spanFile, err)
					}
				}
			})
		}
	}
}

func hasErr(errs []error, target error) bool {
	for _, e := range errs {
		if errors.Is(e, target) {
			return true
		}
	}
	return false
}

// TestDroppedAckTripsConservation: one acknowledgement the generator
// forgets must fail the conservation check.
func TestDroppedAckTripsConservation(t *testing.T) {
	for _, w := range []string{"hot-counter", "like-wire"} {
		t.Run(w, func(t *testing.T) {
			cfg := smallConfig(t, w, false)
			cfg.setups = 1
			cfg.dropAcks = 1
			o, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !hasErr(o.errs, errConservation) {
				t.Fatalf("conservation check did not fire: %v", o.errs)
			}
			if shape(cfg, o).Correct {
				t.Fatal("run reported correct")
			}
		})
	}
}

// TestLostUpdateTripsTransferChecks: a balance changed behind the
// program's back after close breaks conservation, and recovery, which
// rebuilds what was logged, no longer matches the final state.
func TestLostUpdateTripsTransferChecks(t *testing.T) {
	cfg := smallConfig(t, "transfer-durable", false)
	cfg.setups = 1
	cfg.tamper = func(sys system) {
		tr := sys.(*transferDurable)
		k := tr.accounts[tr.byShard[0][0]]
		tr.cl.DB(0).Internal().Store().Preload(k, store.IntValue(initialBalance+1000))
	}
	o, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasErr(o.errs, errConservation) || !hasErr(o.errs, errRecovery) {
		t.Fatalf("want conservation and recovery failures, got %v", o.errs)
	}
}

// TestHotCounterRequiresSplit: a measured window without phase changes
// or stashed reads fails the run.
func TestHotCounterRequiresSplit(t *testing.T) {
	cfg := smallConfig(t, "hot-counter", false)
	h := newHotCounter(cfg)
	if err := h.open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if errs := h.check(window{}); !hasErr(errs, errNoSplit) {
		t.Fatalf("split check did not fire: %v", errs)
	}
}

// TestLikeWireCountsErrorResponses: one error response fails the run.
func TestLikeWireCountsErrorResponses(t *testing.T) {
	cfg := smallConfig(t, "like-wire", false)
	l := newLikeWire(cfg, nil)
	if err := l.open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if _, err := l.client.Call("no-such-procedure"); err == nil {
		t.Fatal("unknown procedure succeeded")
	}
	if errs := l.check(window{}); !hasErr(errs, errServerErrors) {
		t.Fatalf("error-response check did not fire: %v", errs)
	}
}

func TestReadChecks(t *testing.T) {
	bad := &slot{kind: opRead, val: -1}
	for name, src := range map[string]txSource{
		"hot-counter":      &hotCounter{},
		"like-wire":        &likeWire{},
		"transfer-durable": &transferDurable{},
	} {
		if src.checkRead(bad) == nil {
			t.Errorf("%s accepted a negative read", name)
		}
	}
}

// stubSource issues writes whose bodies do nothing.
type stubSource struct{}

func (stubSource) closedOp(s *slot, r *rng.Rand)    { s.kind = opWrite }
func (stubSource) openOp(s *slot, r *rng.Rand)      { s.kind = opRead }
func (stubSource) body(tx doppel.Tx, s *slot) error { return nil }
func (stubSource) checkRead(s *slot) error          { return nil }

// TestDrainTimesOut: a request that never completes fails the drain
// instead of hanging it.
func TestDrainTimesOut(t *testing.T) {
	g := newGen(stubSource{}, 1, 1, 0, nil)
	g.submit = func(s *slot) {} // lost: never acknowledged
	g.fill(now())
	if err := g.drain(50 * time.Millisecond); !errors.Is(err, errDrainTimeout) {
		t.Fatalf("drain = %v, want %v", err, errDrainTimeout)
	}
}

// TestBoundedReportsHang: a teardown that does not return fails within
// its deadline.
func TestBoundedReportsHang(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	if err := bounded("stuck close", 50*time.Millisecond, func() { <-block }); err == nil {
		t.Fatal("bounded returned nil for a hung call")
	}
}

func TestPercentileIsExact(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(100 - i) // 100..1, unsorted
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestLeastStolenDropsStolenParts(t *testing.T) {
	ps := []part{{steal: 0.3, tps: 1}, {steal: 0.0, tps: 2}, {steal: 0.2, tps: 3}, {steal: 0.1, tps: 4}, {steal: 0.4, tps: 5}}
	got := leastStolen(ps)
	if len(got) != 3 || got[0].tps != 2 || got[1].tps != 3 || got[2].tps != 4 {
		t.Fatalf("leastStolen = %+v", got)
	}
	quiet := []part{{steal: 0.01}, {steal: 0}, {steal: 0.02}, {steal: 0}}
	if got := leastStolen(quiet); len(got) != len(quiet) {
		t.Fatalf("leastStolen dropped quiet parts: %+v", got)
	}
}
