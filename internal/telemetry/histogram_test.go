package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// quantile estimates the q-quantile the way Snapshot's P50/P95/P99 do,
// for any q.
func quantile(h *Histogram, q float64) float64 {
	var counts [histBuckets + 1]int64
	total := h.loadBuckets(&counts)
	return quantileFromCounts(&counts, total, q, h.Min(), h.Max())
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 10 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 4 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Fatal("NaN was recorded")
	}
	h.Observe(-5) // clamps to 0
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative clamp: min=%v max=%v", h.Min(), h.Max())
	}
	h.Observe(0)
	h.Observe(1e12) // overflow bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1e12 {
		t.Fatalf("max = %v", h.Max())
	}
	// Quantiles stay within the observed range even for the
	// overflow bucket.
	if p := quantile(&h, 0.99); p > 1e12 || p < 0 {
		t.Fatalf("p99 = %v outside observed range", p)
	}
}

func TestHistogramZeroThenLarger(t *testing.T) {
	// A genuine 0 observation must pin the minimum at 0 even when
	// larger values follow (regression test for the unset-sentinel
	// encoding).
	var h Histogram
	h.Observe(0)
	h.Observe(5)
	if h.Min() != 0 {
		t.Fatalf("min = %v, want 0", h.Min())
	}
	if h.Max() != 5 {
		t.Fatalf("max = %v, want 5", h.Max())
	}
}

// TestHistogramQuantileAccuracy checks the quantile estimates against
// a known uniform distribution: with 2^(1/4) bucket growth the
// relative error must stay under ~20%.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / 100) // uniform on (0, 1000]
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 500},
		{0.95, 950},
		{0.99, 990},
	} {
		got := quantile(&h, tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.20 {
			t.Errorf("p%.0f = %.1f, want %.1f ± 20%% (rel err %.1f%%)", 100*tc.q, got, tc.want, 100*rel)
		}
	}
	if p0 := quantile(&h, 0); p0 != h.Min() {
		t.Errorf("q=0 -> %v, want min %v", p0, h.Min())
	}
	if p1 := quantile(&h, 1); p1 != h.Max() {
		t.Errorf("q=1 -> %v, want max %v", p1, h.Max())
	}
}

// TestHistogramLogNormalQuantiles exercises a skewed distribution —
// the shape real latencies have.
func TestHistogramLogNormalQuantiles(t *testing.T) {
	var h Histogram
	// Deterministic pseudo-lognormal: exp of a triangular ramp.
	for i := 0; i < 50000; i++ {
		u := float64(i%1000)/1000 + 0.0005
		h.Observe(math.Exp(2 * u)) // values in [e^0.001, e^2]
	}
	p50 := quantile(&h, 0.5)
	want := math.Exp(1.0) // median of exp(2u), u uniform(0,1)
	if rel := math.Abs(p50-want) / want; rel > 0.20 {
		t.Fatalf("lognormal p50 = %.3f, want %.3f ± 20%%", p50, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this validates the lock-free implementation.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		workers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(w*perW+i) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perW {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perW)
	}
	wantSum := 0.0
	for i := 0; i < workers*perW; i++ {
		wantSum += float64(i) / 1000
	}
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if h.Min() != 0 {
		t.Fatalf("min = %v", h.Min())
	}
	if want := float64(workers*perW-1) / 1000; h.Max() != want {
		t.Fatalf("max = %v, want %v", h.Max(), want)
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("snapshot count = %d", snap.Count)
	}
	last := int64(0)
	prevBound := math.Inf(-1)
	for _, b := range snap.Buckets {
		if b.UpperBound <= prevBound {
			t.Fatalf("bucket bounds not increasing: %v after %v", b.UpperBound, prevBound)
		}
		if b.Cumulative < last {
			t.Fatalf("cumulative counts decreasing: %d after %d", b.Cumulative, last)
		}
		last = b.Cumulative
		prevBound = b.UpperBound
	}
	if last != 4 {
		t.Fatalf("final cumulative = %d, want 4", last)
	}
}

// TestHistogramSnapshotSelfConsistentConcurrent takes snapshots while
// writers hammer Observe: because Count and the cumulative buckets are
// derived from one pass over the same loads, every snapshot must agree
// with itself — the final cumulative equals Count and the quantiles
// stay inside [Min, Max] — no matter where the writers are.
func TestHistogramSnapshotSelfConsistentConcurrent(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64((w*7919 + i) % 1000))
			}
		}(w)
	}
	for i := 0; i < 500; i++ {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		cum := int64(0)
		if n := len(snap.Buckets); n > 0 {
			cum = snap.Buckets[n-1].Cumulative
		}
		if cum != snap.Count {
			t.Fatalf("snapshot %d: cumulative %d != count %d", i, cum, snap.Count)
		}
		for _, q := range []float64{snap.P50, snap.P95, snap.P99} {
			if q < snap.Min || q > snap.Max {
				t.Fatalf("snapshot %d: quantile %v outside [%v, %v]", i, q, snap.Min, snap.Max)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramObserveDurationAndReset(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Microsecond)
	if got := h.Sum(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("ObserveDuration sum = %v ms, want 1.5", got)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear the histogram")
	}
	h.Observe(2)
	if h.Min() != 2 || h.Max() != 2 {
		t.Fatalf("post-reset min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for v := 1e-4; v < 1e12; v *= 1.07 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%v) = %d < previous %d", v, idx, prev)
		}
		lo, hi := bucketBounds(idx)
		if v <= lo || v > hi {
			if !(idx == 0 && v <= hi) && !(idx == histBuckets && v > lo) {
				t.Fatalf("value %v outside its bucket %d bounds (%v, %v]", v, idx, lo, hi)
			}
		}
		prev = idx
	}
}
