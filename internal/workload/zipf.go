// Package workload provides the paper's workload generators: the INCR1
// and INCRZ microbenchmarks (§8.2, §8.4), the LIKE social-network
// benchmark (§7, §8.5), key-space helpers, and a Zipfian sampler that is
// valid for every exponent the paper sweeps (α ∈ [0, 2]; the standard
// library's rand.Zipf requires s > 1 and cannot express them).
package workload

import (
	"math"

	"doppel/internal/rng"
)

// Zipf samples from a Zipfian popularity distribution over n items:
// item k (0-based rank) is drawn with probability proportional to
// 1/(k+1)^alpha. alpha == 0 is uniform. Sampling is O(1) via an alias
// table; construction is O(n).
type Zipf struct {
	n     int
	alpha float64
	h     float64 // generalized harmonic number H(n, alpha)
	alias *Alias
}

// NewZipf builds a sampler for n items with exponent alpha >= 0.
func NewZipf(n int, alpha float64) *Zipf {
	if n < 1 {
		panic("workload: Zipf needs n >= 1")
	}
	if alpha < 0 {
		panic("workload: Zipf needs alpha >= 0")
	}
	weights := make([]float64, n)
	h := 0.0
	for k := 0; k < n; k++ {
		w := math.Pow(float64(k+1), -alpha)
		weights[k] = w
		h += w
	}
	return &Zipf{n: n, alpha: alpha, h: h, alias: NewAlias(weights)}
}

// harmonicDirect is how many leading terms Harmonic adds one by one.
const harmonicDirect = 1000

// Harmonic returns the generalized harmonic number H(n, alpha), the sum
// of k^-alpha for k = 1..n: the normalizer of Zipf(n, alpha), under
// which the item of 0-based rank k has probability (k+1)^-alpha / H.
// It adds the terms below harmonicDirect one by one and the rest by the
// Euler–Maclaurin formula, cut after its x^-(alpha+5) term, whose
// remainder there is far below float64 rounding: the result matches
// the direct sum without n calls to math.Pow.
func Harmonic(n int, alpha float64) float64 {
	h := 0.0
	for k := 1; k <= min(n, harmonicDirect-1); k++ {
		h += math.Pow(float64(k), -alpha)
	}
	if n < harmonicDirect {
		return h
	}
	// The sum of f(k) for k = a..b is the integral of f from a to b,
	// plus (f(a)+f(b))/2, plus B(2j)/(2j)! times the difference of the
	// (2j-1)th derivative of f between b and a, for j = 1, 2, 3, ...
	// For f(x) = x^-alpha that derivative is c x^-(alpha+2j-1), with
	// c = -alpha for j = 1 and gaining (alpha+2j-1)(alpha+2j) per step.
	a, b := float64(harmonicDirect), float64(n)
	if alpha == 1 {
		h += math.Log(b / a)
	} else {
		h += (math.Pow(b, 1-alpha) - math.Pow(a, 1-alpha)) / (1 - alpha)
	}
	h += (math.Pow(a, -alpha) + math.Pow(b, -alpha)) / 2
	c := -alpha
	for j, bern := range []float64{1.0 / 12, -1.0 / 720, 1.0 / 30240} {
		e := alpha + float64(2*j+1)
		h += bern * c * (math.Pow(b, -e) - math.Pow(a, -e))
		c *= e * (e + 1)
	}
	return h
}

// N returns the number of items.
func (z *Zipf) N() int { return z.n }

// Alpha returns the exponent.
func (z *Zipf) Alpha() float64 { return z.alpha }

// Sample draws an item rank in [0, n); rank 0 is the most popular.
func (z *Zipf) Sample(r *rng.Rand) int { return z.alias.Sample(r) }

// Prob returns the exact probability of the item with 0-based rank k.
// Table 1 of the paper is generated directly from this.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= z.n {
		return 0
	}
	return math.Pow(float64(k+1), -z.alpha) / z.h
}

// Alias is Vose's alias method: O(1) sampling from an arbitrary discrete
// distribution.
type Alias struct {
	prob  []float64 // acceptance probability per column
	alias []int32   // alternative item per column
}

// NewAlias builds an alias table from non-negative weights (they need not
// sum to 1).
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("workload: empty weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("workload: negative or NaN weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("workload: zero total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		// Numerical leftovers: treat as full columns.
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws an item index.
func (a *Alias) Sample(r *rng.Rand) int {
	col := int(r.Uint64n(uint64(len(a.prob))))
	if r.Float64() < a.prob[col] {
		return col
	}
	return int(a.alias[col])
}
