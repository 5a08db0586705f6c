// Package metrics provides the measurement substrate used by the engines
// and the benchmark harness: log-bucketed latency histograms and simple
// throughput accumulators. Histograms record nanoseconds and report mean
// and quantiles, which is what the paper's Table 3 and Figure 13 present.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// histSubBuckets is the number of linear sub-buckets within each power of
// two. 16 sub-buckets gives a worst-case quantile error of about 6%.
const histSubBuckets = 16

// histBuckets covers values up to 2^40 (about 18 minutes in nanoseconds).
const histBuckets = 41 * histSubBuckets

// Hist is a log-linear histogram of non-negative int64 samples. It has
// one writer — each worker owns one and they are merged — but any
// goroutine may read or Merge it while the owner records: every field
// is an atomic the owner updates with Add or Load+Store. Record writes
// total last, so a reader that sees a sample counted also sees its min,
// max and sum; a quantile read during recording may count a few samples
// the total does not yet include.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the sample sum
	min    atomic.Int64
	max    atomic.Int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	h := &Hist{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubBuckets {
		return int(v)
	}
	// The value has bit length L >= 5. Top log2 bucket index is L-4;
	// sub-bucket is the next 4 bits below the leading bit.
	l := bits.Len64(uint64(v))
	exp := l - 4 // >= 1
	sub := int(uint64(v)>>(uint(exp)-1)) & (histSubBuckets - 1)
	idx := exp*histSubBuckets + sub
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx; used to
// report quantiles.
func bucketLow(idx int) int64 {
	exp := idx / histSubBuckets
	sub := idx % histSubBuckets
	if exp == 0 {
		return int64(sub)
	}
	return (int64(histSubBuckets) + int64(sub)) << (uint(exp) - 1)
}

// Record adds one sample. Only the histogram's owner may call it.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v < h.min.Load() {
		h.min.Store(v)
	}
	if v > h.max.Load() {
		h.max.Store(v)
	}
	h.sum.Store(math.Float64bits(math.Float64frombits(h.sum.Load()) + float64(v)))
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
}

// Count reports the number of recorded samples.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Mean reports the arithmetic mean of samples, or 0 when empty.
func (h *Hist) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load()) / float64(n)
}

// Min reports the smallest sample, or 0 when empty.
func (h *Hist) Min() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max reports the largest sample, or 0 when empty.
func (h *Hist) Max() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile reports an approximation of the q-quantile (0 <= q <= 1) with
// bounded relative error. Quantile(0.99) is the paper's "99% latency".
func (h *Hist) Quantile(q float64) int64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	lo, hi := h.min.Load(), h.max.Load()
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			return min(max(bucketLow(i), lo), hi)
		}
	}
	return hi
}

// Merge adds all samples of other into h. other's owner may be
// recording meanwhile; h must have no other writer.
func (h *Hist) Merge(other *Hist) {
	if other == nil {
		return
	}
	n := other.total.Load()
	if n == 0 {
		return
	}
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Store(math.Float64bits(math.Float64frombits(h.sum.Load()) + math.Float64frombits(other.sum.Load())))
	if m := other.min.Load(); m < h.min.Load() {
		h.min.Store(m)
	}
	if m := other.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
	h.total.Add(n)
}

// Reset clears the histogram. Only the owner may call it.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// String summarizes the histogram for logs.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
