// Package rng provides small, fast, allocation-free pseudo-random number
// generators for per-worker use. Workers in the benchmark harness each own
// an independent generator so no locks are taken on the random-number
// path (a lock there would itself become the contended record the system
// is trying to measure).
package rng

import "math/bits"

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used both directly and to seed Rand.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded from seed via splitmix64, per the xoshiro
// authors' recommendation. Distinct seeds give independent streams for
// practical purposes.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// A xoshiro state of all zeros is a fixed point; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm fills out with a random permutation of [0, len(out)).
func (r *Rand) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// ExpBackoff returns a randomized backoff duration (in abstract units) for
// the attempt-th retry: uniform in [0, min(cap, base<<attempt)).
func (r *Rand) ExpBackoff(base, capUnits uint64, attempt int) uint64 {
	if attempt > 62 {
		attempt = 62
	}
	window := base << uint(attempt)
	if window > capUnits || window == 0 {
		window = capUnits
	}
	if window == 0 {
		return 0
	}
	return r.Uint64n(window)
}
