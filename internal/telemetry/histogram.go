package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram geometry: fixed log-spaced buckets covering [histMin, ∞).
// With growth 2^(1/4) per bucket the relative quantile error is bounded
// by ~19% — tight enough for p50/p95/p99 latency work — while keeping
// Observe a single atomic increment with no allocation and no lock.
const (
	// histBuckets is the number of finite buckets.
	histBuckets = 128
	// histMin is the upper bound of the first bucket. Observations
	// below it land in bucket 0.
	histMin = 1e-3
	// histGrowthLog2 is log2 of the per-bucket growth factor
	// (2^(1/4) ≈ 1.189).
	histGrowthLog2 = 0.25
)

// histUpperBounds holds the precomputed inclusive upper bound of every
// finite bucket; observations above the last bound land in the
// overflow bucket.
var histUpperBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	for i := range b {
		b[i] = histMin * math.Pow(2, histGrowthLog2*float64(i))
	}
	return b
}()

// Histogram is a lock-free fixed-bucket log-spaced histogram. The zero
// value is ready. Observe is wait-free (one atomic add plus three CAS
// loops that almost never retry) and safe for concurrent use, which
// keeps it cheap enough for per-RPC instrumentation on the hot path.
//
// Units are the caller's choice; the federation layer records
// milliseconds (metric names carry a _ms suffix).
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64 // +1 overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	// minBits/maxBits hold float64 bits of the observed extremes.
	// Values are non-negative by construction (Observe clamps), so
	// all-zero bits mean "no observation yet" for min — a genuine
	// zero observation is stored as -0.0 bits to stay distinguishable
	// — and a valid starting point (0.0) for max.
	minBits atomic.Uint64
	maxBits atomic.Uint64
	// window, when set, receives a copy of every observation so the
	// last-W seconds are queryable alongside the cumulative totals.
	window atomic.Pointer[RollingHistogram]
}

// bucketIndex maps a value to its bucket (histBuckets = overflow).
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	idx := int(math.Ceil(math.Log2(v/histMin) / histGrowthLog2))
	if idx >= histBuckets {
		return histBuckets
	}
	return idx
}

// Observe records one value. NaN is ignored; negative values clamp to
// zero (the histogram tracks magnitudes: latencies, sizes, counts).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	// Extremes before the bucket: readers load the buckets first, so
	// every observation they count has already published its min/max
	// and quantiles stay inside [Min, Max] under concurrent Observe.
	casMin(&h.minBits, v)
	casMax(&h.maxBits, v)
	addFloat(&h.sumBits, v)
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	if w := h.window.Load(); w != nil {
		w.Observe(v)
	}
}

// EnableWindow attaches a rolling last-`window` view fed by every
// subsequent Observe (see RollingHistogram). Shards controls the
// ring granularity; values < 2 pick the default. Returns the attached
// rolling histogram; calling EnableWindow again replaces it.
func (h *Histogram) EnableWindow(window time.Duration, shards int) *RollingHistogram {
	r := NewRollingHistogram(window, shards)
	h.window.Store(r)
	return r
}

// Window returns the attached rolling view (nil unless EnableWindow
// was called).
func (h *Histogram) Window() *RollingHistogram { return h.window.Load() }

// ObserveDuration records a latency in float milliseconds — the unit
// every *_ms metric family in this repo uses.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	v := math.Float64frombits(h.minBits.Load())
	if v == 0 { // -0.0 encodes an observed zero; normalize the sign
		return 0
	}
	return v
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// loadBuckets copies the live bucket counts into counts in one pass
// and returns their sum. Deriving totals from the same loads that fill
// the array is what makes snapshots self-consistent: the count can
// never disagree with the buckets it was summed from, even under
// concurrent Observe.
func (h *Histogram) loadBuckets(counts *[histBuckets + 1]int64) int64 {
	total := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		counts[i] = n
		total += n
	}
	return total
}

// quantileFromCounts estimates the q-quantile from an immutable bucket
// count array, interpolating geometrically inside the winning bucket
// and clamping to the [min, max] observed range.
func quantileFromCounts(counts *[histBuckets + 1]int64, total int64, q, min, max float64) float64 {
	if total == 0 || q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(total)
	cum := 0.0
	for i := 0; i <= histBuckets; i++ {
		n := float64(counts[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			// Clamp the interpolation to the observed extremes so
			// the estimate never leaves the data's range.
			if lo < min {
				lo = min
			}
			if hi > max || i == histBuckets {
				hi = max
			}
			if lo <= 0 {
				lo = math.SmallestNonzeroFloat64
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / n
			// lo was lifted off zero for the ratio; an all-zero
			// histogram must still answer 0, not the smallest float.
			return math.Min(lo*math.Pow(hi/lo, frac), max)
		}
		cum += n
	}
	return max
}

// Snapshot captures a self-consistent view for rendering: the bucket
// counts are loaded exactly once, and Count, the quantiles, and the
// cumulative Buckets are all derived from that single pass, so a
// snapshot taken under concurrent Observe can never report a Count
// that disagrees with its own buckets. Buckets with zero observations
// are skipped (upper bounds remain strictly increasing).
type HistogramSnapshot struct {
	Count    int64
	Sum      float64
	Min, Max float64
	P50      float64
	P95      float64
	P99      float64
	// Buckets holds (upper bound, cumulative count) pairs for every
	// non-empty bucket, in increasing bound order.
	Buckets []BucketCount
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 // +Inf for the overflow bucket
	Cumulative int64
}

// Snapshot renders the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets + 1]int64
	total := h.loadBuckets(&counts)
	s := HistogramSnapshot{Count: total, Sum: h.Sum()}
	if total == 0 {
		return s
	}
	// math.Abs folds both the unset sentinel (+0.0 bits) and the
	// observed-zero sentinel (-0.0 bits) to plain zero.
	min := math.Abs(math.Float64frombits(h.minBits.Load()))
	max := math.Float64frombits(h.maxBits.Load())
	s.Min, s.Max = min, max
	s.P50 = quantileFromCounts(&counts, total, 0.50, min, max)
	s.P95 = quantileFromCounts(&counts, total, 0.95, min, max)
	s.P99 = quantileFromCounts(&counts, total, 0.99, min, max)
	cum := int64(0)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(i)
		if i == histBuckets {
			hi = math.Inf(1)
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: hi, Cumulative: cum})
	}
	return s
}

// Reset zeroes every bucket and summary (not linearizable against
// concurrent Observe; intended for experiment-harness boundaries).
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(0)
	h.maxBits.Store(0)
}

// bucketBounds returns the (exclusive lower, inclusive upper) value
// range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, histUpperBounds[0]
	case i >= histBuckets:
		return histUpperBounds[histBuckets-1], math.Inf(1)
	default:
		return histUpperBounds[i-1], histUpperBounds[i]
	}
}

// addFloat atomically adds v to the float64 stored as bits in addr.
func addFloat(addr *atomic.Uint64, v float64) {
	for {
		old := addr.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if addr.CompareAndSwap(old, new) {
			return
		}
	}
}

// negZeroBits encodes an observed value of exactly zero without
// colliding with the all-zero "unset" sentinel (v is non-negative).
var negZeroBits = math.Float64bits(math.Copysign(0, -1))

// casMin lowers the stored minimum to v (non-negative). All-zero bits
// mean the minimum is unset.
func casMin(addr *atomic.Uint64, v float64) {
	bits := math.Float64bits(v)
	if bits == 0 {
		bits = negZeroBits
	}
	for {
		old := addr.Load()
		if old != 0 && math.Float64frombits(old) <= v {
			return
		}
		if addr.CompareAndSwap(old, bits) {
			return
		}
	}
}

// casMax raises the stored maximum to v (non-negative; the zero value
// 0.0 is a valid floor).
func casMax(addr *atomic.Uint64, v float64) {
	for {
		old := addr.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if addr.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
