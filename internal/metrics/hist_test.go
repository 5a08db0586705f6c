package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"doppel/internal/rng"
)

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram min/max should be 0")
	}
}

func TestHistSingleValue(t *testing.T) {
	h := NewHist()
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 1234 {
		t.Fatalf("mean = %v", h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 1100 || got > 1234 {
			t.Fatalf("quantile(%v) = %d, want near 1234", q, got)
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	// Values below histSubBuckets land in exact buckets.
	h := NewHist()
	for v := int64(0); v < 16; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d", got)
	}
	if got := h.Quantile(1); got != 15 {
		t.Fatalf("q1 = %d", got)
	}
}

func TestHistNegativeClamped(t *testing.T) {
	h := NewHist()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample should clamp to 0: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	// Compare against exact quantiles of the recorded data; log-linear
	// bucketing bounds relative error by 1/16.
	r := rng.New(42)
	h := NewHist()
	var vals []int64
	for i := 0; i < 50000; i++ {
		v := int64(r.Uint64n(1_000_000))
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if relErr > 0.10 {
			t.Fatalf("q=%v exact=%d got=%d relErr=%.3f", q, exact, got, relErr)
		}
	}
}

func TestHistMeanExact(t *testing.T) {
	h := NewHist()
	var sum float64
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 17)
		sum += float64(i * 17)
	}
	want := sum / 1000
	if math.Abs(h.Mean()-want) > 1e-9 {
		t.Fatalf("mean %v want %v", h.Mean(), want)
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 5000)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 5999 {
		t.Fatalf("min/max = %d/%d", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
	if a.Count() != 2000 {
		t.Fatal("merge(nil) changed count")
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestBucketMonotone(t *testing.T) {
	// bucketOf must be monotone non-decreasing and bucketLow must be a
	// lower bound of every value in the bucket.
	f := func(v uint32) bool {
		x := int64(v)
		b := bucketOf(x)
		return bucketLow(b) <= x && bucketOf(x+1) >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketHugeValue(t *testing.T) {
	b := bucketOf(math.MaxInt64)
	if b != histBuckets-1 {
		t.Fatalf("max value bucket = %d, want %d", b, histBuckets-1)
	}
	h := NewHist()
	h.Record(math.MaxInt64)
	if h.Quantile(0.5) <= 0 {
		t.Fatal("quantile of huge value should be positive")
	}
}

func TestTxnStatsMergeAndThroughput(t *testing.T) {
	a, b := NewTxnStats(), NewTxnStats()
	a.Committed.Store(10)
	a.Aborted.Store(2)
	b.Committed.Store(5)
	b.Stashed.Store(3)
	b.Retries.Store(1)
	a.ReadLatency.Record(100)
	b.ReadLatency.Record(200)
	b.WriteLatency.Record(300)
	a.Merge(b)
	if a.Committed.Load() != 15 || a.Aborted.Load() != 2 || a.Stashed.Load() != 3 || a.Retries.Load() != 1 {
		t.Fatalf("bad merge: %v", a)
	}
	if a.ReadLatency.Count() != 2 || a.WriteLatency.Count() != 1 {
		t.Fatal("histograms not merged")
	}
	if tp := a.Throughput(1e9); math.Abs(tp-15) > 1e-9 {
		t.Fatalf("throughput = %v", tp)
	}
	if tp := a.Throughput(0); tp != 0 {
		t.Fatalf("zero elapsed throughput = %v", tp)
	}
	a.Merge(nil)
	a.Reset()
	if a.Committed.Load() != 0 || a.ReadLatency.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistString(t *testing.T) {
	h := NewHist()
	h.Record(5)
	if h.String() == "" {
		t.Fatal("empty string")
	}
	s := NewTxnStats()
	if s.String() == "" {
		t.Fatal("empty string")
	}
}
