package workload

import (
	"math"
	"testing"

	"doppel/internal/rng"
)

func TestZipfProbMatchesPaperTable1(t *testing.T) {
	// Table 1 of the paper: percentage of writes to the 1st, 2nd, 10th
	// and 100th most popular keys, 1M keys. Spot-check the α=1.0 and
	// α=1.4 rows against the paper's printed digits.
	z := NewZipf(1_000_000, 1.0)
	checks := []struct {
		rank int
		want float64 // percent
	}{{0, 6.953}, {1, 3.476}, {9, 0.6951}, {99, 0.0695}}
	for _, c := range checks {
		got := z.Prob(c.rank) * 100
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("alpha=1.0 rank %d: got %.4f%%, paper says %.4f%%", c.rank+1, got, c.want)
		}
	}
	z = NewZipf(1_000_000, 1.4)
	checks = []struct {
		rank int
		want float64
	}{{0, 32.30}, {1, 12.24}, {9, 1.286}, {99, 0.0512}}
	for _, c := range checks {
		got := z.Prob(c.rank) * 100
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("alpha=1.4 rank %d: got %.4f%%, paper says %.4f%%", c.rank+1, got, c.want)
		}
	}
}

// TestHarmonicMatchesDirectSum: the Euler–Maclaurin tail agrees with
// adding every term, for sizes on both sides of the direct prefix and
// exponents across the range Table 1 sweeps.
func TestHarmonicMatchesDirectSum(t *testing.T) {
	for _, n := range []int{1, 999, 1000, 1001, 54321, 1_000_000} {
		for _, alpha := range []float64{0, 0.2, 0.6, 1.0, 1.4, 2.0} {
			direct := 0.0
			for k := 1; k <= n; k++ {
				direct += math.Pow(float64(k), -alpha)
			}
			if got := Harmonic(n, alpha); math.Abs(got-direct) > 1e-12*direct {
				t.Errorf("Harmonic(%d, %.1f) = %.17g, direct sum %.17g", n, alpha, got, direct)
			}
		}
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := NewZipf(100, 0)
	for _, k := range []int{0, 50, 99} {
		if math.Abs(z.Prob(k)-0.01) > 1e-12 {
			t.Fatalf("alpha=0 prob(%d) = %v", k, z.Prob(k))
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1, 1.5, 2} {
		z := NewZipf(1000, alpha)
		sum := 0.0
		for k := 0; k < 1000; k++ {
			sum += z.Prob(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("alpha=%v sum=%v", alpha, sum)
		}
	}
	if NewZipf(10, 1).Prob(-1) != 0 || NewZipf(10, 1).Prob(10) != 0 {
		t.Fatal("out-of-range prob should be 0")
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	// Empirical frequencies must track analytic probabilities.
	z := NewZipf(50, 1.2)
	r := rng.New(7)
	const n = 400000
	counts := make([]int, 50)
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for k := 0; k < 10; k++ {
		want := z.Prob(k)
		got := float64(counts[k]) / n
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("rank %d: freq %.5f want %.5f", k, got, want)
		}
	}
	if z.N() != 50 || z.Alpha() != 1.2 {
		t.Fatal("accessors")
	}
}

func TestZipfHighAlphaConcentration(t *testing.T) {
	z := NewZipf(1_000_000, 2.0)
	// Paper Table 1: 60.80% on the top key at alpha=2.
	if got := z.Prob(0) * 100; math.Abs(got-60.80) > 0.1 {
		t.Fatalf("alpha=2 top key %.2f%%", got)
	}
	r := rng.New(3)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if z.Sample(r) == 0 {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.608) > 0.02 {
		t.Fatalf("sampled top-key fraction %.3f", frac)
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, -1) },
		func() { NewAlias(nil) },
		func() { NewAlias([]float64{-1, 2}) },
		func() { NewAlias([]float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAliasSingleItem(t *testing.T) {
	a := NewAlias([]float64{5})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single item alias")
		}
	}
}

func TestAliasExactTwoToOne(t *testing.T) {
	a := NewAlias([]float64{2, 1})
	r := rng.New(9)
	const n = 300000
	zero := 0
	for i := 0; i < n; i++ {
		if a.Sample(r) == 0 {
			zero++
		}
	}
	frac := float64(zero) / n
	if math.Abs(frac-2.0/3.0) > 0.01 {
		t.Fatalf("2:1 weights sampled %.4f", frac)
	}
}
