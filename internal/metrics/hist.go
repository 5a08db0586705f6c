// Package metrics provides the measurement substrate used by the engines
// and the benchmark harness: log-bucketed latency histograms and simple
// throughput accumulators. Histograms record nanoseconds and report mean
// and quantiles, which is what the paper's Table 3 and Figure 13 present.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// histSubBuckets is the number of linear sub-buckets within each power of
// two. 16 sub-buckets gives a worst-case quantile error of about 6%.
const histSubBuckets = 16

// histBuckets covers values up to 2^40 (about 18 minutes in nanoseconds).
const histBuckets = 41 * histSubBuckets

// Hist is a log-linear histogram of non-negative int64 samples. It is not
// safe for concurrent use; each worker owns one and they are merged.
type Hist struct {
	counts [histBuckets]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{min: math.MaxInt64, max: math.MinInt64}
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

// Record adds one sample.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded samples.
func (h *Hist) Count() uint64 { return h.total }

// Mean reports the arithmetic mean of samples, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min reports the smallest sample, or 0 when empty.
func (h *Hist) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or 0 when empty.
func (h *Hist) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile reports an approximation of the q-quantile (0 <= q <= 1) with
// bounded relative error. Quantile(0.99) is the paper's "99% latency".
func (h *Hist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			low := bucketLow(i)
			if low < h.min {
				low = h.min
			}
			if low > h.max {
				low = h.max
			}
			return low
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *Hist) Reset() {
	*h = Hist{min: math.MaxInt64, max: math.MinInt64}
}

// String summarizes the histogram for logs.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
