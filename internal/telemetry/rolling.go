package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Rolling-window histograms: a ring of interval shards over the
// lock-free Histogram, merged on read. Cumulative-since-start
// histograms answer "how has the service behaved overall"; a soak test
// or a live dashboard needs "how is it behaving right now". Each shard
// owns one wall-clock interval; Observe indexes the ring by coarse
// time, recycling the shard that has aged out of the window, so the
// write path stays a handful of atomic ops with zero allocation and
// no lock. Reads merge the shards still inside the window.
//
// The view is deliberately approximate at interval boundaries: a shard
// being recycled can lose an observation racing the wipe, and the
// merged window covers between (shards-1) and shards intervals of
// history depending on where "now" falls inside the current interval.
// Both are harmless for monitoring and are the price of a wait-free
// write path.

const (
	// defaultWindow is the rolling span EnableWindow-style callers
	// get when they pass a non-positive window.
	defaultWindow = 60 * time.Second
	// defaultWindowShards is the ring size when the caller passes
	// fewer than 2 shards.
	defaultWindowShards = 6
)

// rollingShard is one ring slot: the interval it currently covers plus
// the observations made during that interval.
type rollingShard struct {
	// epoch is the absolute interval index (unixnano / interval) the
	// shard's counts belong to. A shard whose epoch has fallen out of
	// the window is expired: excluded from merges, recycled by the
	// next Observe that lands on its slot.
	epoch atomic.Int64
	hist  Histogram
}

// RollingHistogram tracks the distribution of the last `window` of
// observations. The zero value is NOT ready; use NewRollingHistogram
// or Histogram.EnableWindow. All methods are safe for concurrent use.
type RollingHistogram struct {
	shards   []rollingShard
	interval int64 // shard width in nanoseconds
	span     time.Duration

	// cacheTTL bounds how stale a merged Stats result may be served;
	// within the TTL repeated readers cost two atomic loads instead of
	// a full ring merge. A new observation invalidates immediately (see
	// gen), so the TTL only covers time-driven change: shards silently
	// expiring out of the window.
	cacheTTL int64
	cache    atomic.Pointer[windowCache]
	// gen counts observations; a cached Stats result is only served
	// while the generation it was computed under is still current.
	gen atomic.Int64

	// now returns wall-clock nanoseconds; swapped in tests for
	// deterministic shard advancement.
	now func() int64
}

// NewRollingHistogram builds a rolling histogram covering roughly the
// last `window`, split into `shards` ring slots. Non-positive window
// and shards < 2 select the defaults (60s over 6 shards).
func NewRollingHistogram(window time.Duration, shards int) *RollingHistogram {
	if window <= 0 {
		window = defaultWindow
	}
	if shards < 2 {
		shards = defaultWindowShards
	}
	interval := int64(window) / int64(shards)
	if interval < int64(time.Millisecond) {
		interval = int64(time.Millisecond)
	}
	return &RollingHistogram{
		shards:   make([]rollingShard, shards),
		interval: interval,
		span:     time.Duration(interval * int64(shards)),
		cacheTTL: interval / 16,
		now:      func() int64 { return time.Now().UnixNano() },
	}
}

// Observe records one value into the shard owning the current
// interval. Wait-free and allocation-free: one clock read, one ring
// index, and the underlying Histogram's atomic updates.
func (r *RollingHistogram) Observe(v float64) {
	e := r.now() / r.interval
	s := &r.shards[int(e%int64(len(r.shards)))]
	if old := s.epoch.Load(); old != e {
		// Claim the slot for the new interval; the CAS winner wipes
		// the counts left over from the interval being recycled.
		if s.epoch.CompareAndSwap(old, e) {
			s.hist.Reset()
		}
	}
	s.hist.Observe(v)
	r.gen.Add(1)
}

// WindowStats is the merged summary of the observations inside the
// rolling window.
type WindowStats struct {
	Window time.Duration
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Mean returns the window's arithmetic mean (0 when empty).
func (s WindowStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// windowCache memoizes one merged read.
type windowCache struct {
	at    int64
	gen   int64
	stats WindowStats
}

// Stats returns the merged last-window summary. Results are memoized:
// repeated reads with no intervening writes cost two atomic loads, a
// new observation invalidates the cache immediately, and the TTL (a
// small fraction of the shard interval) re-merges even an idle window
// so expiring shards age out of the summary.
func (r *RollingHistogram) Stats() WindowStats {
	now := r.now()
	// Load gen before merging: an Observe racing the merge leaves a
	// cache entry tagged with the older generation, so the next read
	// conservatively re-merges.
	gen := r.gen.Load()
	if c := r.cache.Load(); c != nil && c.gen == gen && now-c.at <= r.cacheTTL {
		return c.stats
	}
	st := r.merge(now)
	r.cache.Store(&windowCache{at: now, gen: gen, stats: st})
	return st
}

// merge folds every live shard into one bucket array and derives the
// window summary from that single pass.
func (r *RollingHistogram) merge(now int64) WindowStats {
	cur := now / r.interval
	n := int64(len(r.shards))
	var counts [histBuckets + 1]int64
	st := WindowStats{Window: r.span, Min: math.Inf(1)}
	total := int64(0)
	for i := range r.shards {
		s := &r.shards[i]
		e := s.epoch.Load()
		if e > cur || cur-e >= n {
			continue // expired, or never claimed since startup
		}
		shardTotal := int64(0)
		for j := range s.hist.buckets {
			c := s.hist.buckets[j].Load()
			counts[j] += c
			shardTotal += c
		}
		if shardTotal == 0 {
			continue
		}
		total += shardTotal
		st.Sum += s.hist.Sum()
		if s.hist.Count() > 0 {
			if mn := s.hist.Min(); mn < st.Min {
				st.Min = mn
			}
			if mx := s.hist.Max(); mx > st.Max {
				st.Max = mx
			}
		}
	}
	st.Count = total
	if total == 0 {
		st.Min = 0
		return st
	}
	if math.IsInf(st.Min, 1) {
		st.Min = 0
	}
	st.P50 = quantileFromCounts(&counts, total, 0.50, st.Min, st.Max)
	st.P95 = quantileFromCounts(&counts, total, 0.95, st.Min, st.Max)
	st.P99 = quantileFromCounts(&counts, total, 0.99, st.Min, st.Max)
	return st
}
