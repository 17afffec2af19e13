package telemetry

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives a RollingHistogram deterministically: tests advance
// it past shard intervals instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ns += int64(d)
}

// testRolling builds a 6-shard 60s rolling histogram on a fake clock
// started well away from zero (epoch 0 is a real interval index).
func testRolling() (*RollingHistogram, *fakeClock) {
	r := NewRollingHistogram(60*time.Second, 6)
	c := &fakeClock{ns: int64(100 * time.Hour)}
	r.now = c.now
	return r, c
}

func TestRollingDefaults(t *testing.T) {
	r := NewRollingHistogram(0, 0)
	if r.span != 60*time.Second {
		t.Fatalf("default span = %v, want 60s", r.span)
	}
	if len(r.shards) != 6 {
		t.Fatalf("default shards = %d, want 6", len(r.shards))
	}
}

func TestRollingObserveAndStats(t *testing.T) {
	r, _ := testRolling()
	for i := 1; i <= 100; i++ {
		r.Observe(float64(i))
	}
	st := r.Stats()
	if st.Count != 100 {
		t.Fatalf("count = %d, want 100", st.Count)
	}
	if st.Min != 1 || st.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", st.Min, st.Max)
	}
	if st.Sum != 5050 {
		t.Fatalf("sum = %v, want 5050", st.Sum)
	}
	if m := st.Mean(); m != 50.5 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	// The log-bucket quantile estimate has ~19% relative error.
	for _, q := range []struct {
		got, want float64
	}{{st.P50, 50}, {st.P95, 95}, {st.P99, 99}} {
		if q.got < q.want*0.8 || q.got > q.want*1.2 {
			t.Fatalf("quantile %v outside 20%% of %v", q.got, q.want)
		}
	}
	if (WindowStats{}).Mean() != 0 {
		t.Fatal("empty Mean() != 0")
	}
}

// TestRollingShardExpiry verifies observations age out once the clock
// moves a full window past them, and that a partial advance keeps the
// still-covered shards.
func TestRollingShardExpiry(t *testing.T) {
	r, c := testRolling()
	r.Observe(5)
	r.Observe(7)
	if st := r.Stats(); st.Count != 2 {
		t.Fatalf("count = %d, want 2", st.Count)
	}

	// Half a window later the old shard is still live.
	c.advance(30 * time.Second)
	r.Observe(9)
	if st := r.merge(c.now()); st.Count != 3 {
		t.Fatalf("count after 30s = %d, want 3", st.Count)
	}

	// A full window past the first observations, only the recent one
	// remains.
	c.advance(40 * time.Second)
	st := r.merge(c.now())
	if st.Count != 1 || st.Min != 9 || st.Max != 9 {
		t.Fatalf("after expiry: %+v, want single observation 9", st)
	}

	// A full window past everything: empty.
	c.advance(2 * time.Minute)
	if st := r.merge(c.now()); st.Count != 0 || st.Min != 0 {
		t.Fatalf("after full expiry: %+v, want empty", st)
	}
}

// TestRollingShardRecycle verifies a ring slot reused for a new
// interval wipes the counts of the interval it replaces.
func TestRollingShardRecycle(t *testing.T) {
	r, c := testRolling()
	interval := time.Duration(r.interval)
	r.Observe(100)
	// Advance exactly one full ring: the next observation lands on the
	// same slot as the first and must reset it.
	c.advance(interval * time.Duration(len(r.shards)))
	r.Observe(1)
	st := r.merge(c.now())
	if st.Count != 1 || st.Max != 1 {
		t.Fatalf("recycled shard kept stale counts: %+v", st)
	}
}

// TestRollingStatsCached verifies the merged read is memoized across
// write-free reads, invalidated immediately by a new observation, and
// re-merged after the TTL even when idle (shards can expire silently).
func TestRollingStatsCached(t *testing.T) {
	r, c := testRolling()
	r.Observe(1)
	if st := r.Stats(); st.Count != 1 {
		t.Fatalf("count = %d, want 1", st.Count)
	}
	// No writes: repeated reads serve the same cache entry.
	entry := r.cache.Load()
	if r.Stats(); r.cache.Load() != entry {
		t.Fatal("write-free read within TTL re-merged instead of serving the cache")
	}
	// A new observation is visible immediately, TTL notwithstanding.
	r.Observe(2)
	if st := r.Stats(); st.Count != 2 {
		t.Fatalf("post-write count = %d, want 2 (stale cache served)", st.Count)
	}
	// Idle past the TTL: the re-merge notices time-driven change (here,
	// everything expiring out of the window).
	c.advance(2 * r.span)
	if st := r.Stats(); st.Count != 0 {
		t.Fatalf("after expiry count = %d, want 0", st.Count)
	}
}

// TestHistogramWindowFeed verifies EnableWindow wires the cumulative
// histogram's Observe into the rolling view, and that re-enabling
// replaces it.
func TestHistogramWindowFeed(t *testing.T) {
	var h Histogram
	h.Observe(1) // before the window exists: cumulative only
	w := h.EnableWindow(time.Minute, 6)
	if h.Window() != w {
		t.Fatal("Window() did not return the attached view")
	}
	h.Observe(2)
	h.Observe(3)
	if st := w.Stats(); st.Count != 2 {
		t.Fatalf("window count = %d, want 2 (pre-window observation leaked in?)", st.Count)
	}
	if h.Count() != 3 {
		t.Fatalf("cumulative count = %d, want 3", h.Count())
	}
	w2 := h.EnableWindow(time.Minute, 6)
	h.Observe(4)
	if st := w2.Stats(); st.Count != 1 {
		t.Fatalf("replacement window count = %d, want 1", st.Count)
	}
}

// TestRollingConcurrent hammers Observe while readers merge; run with
// -race this is the wait-free write path proof.
func TestRollingConcurrent(t *testing.T) {
	r, c := testRolling()
	// Claim the interval's shard before the writers start: the first
	// Observe on an unclaimed slot wipes it, and a racing writer's value
	// can land before that wipe — the loss the package comment accepts
	// at interval boundaries, not what this test is about.
	r.Observe(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Observe(float64(i % 50))
				if i%100 == 0 {
					c.advance(time.Millisecond)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			st := r.Stats()
			if st.Count < 0 {
				t.Error("negative merged count")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	// All observations land within the window (the fake clock advanced
	// ~80ms total, inside the claimed 10s interval), so nothing expired
	// and nothing was wiped.
	if st := r.merge(c.now()); st.Count != 8001 {
		t.Fatalf("final count = %d, want 8001", st.Count)
	}
}

// BenchmarkRollingObserve gates the hot write path: it must not
// allocate (the telemetry gate of scripts/benchgate checks 0 allocs/op).
func BenchmarkRollingObserve(b *testing.B) {
	r := NewRollingHistogram(60*time.Second, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(float64(i % 1000))
	}
}

// BenchmarkRollingStats measures the memoized merged read — the cost
// every /metrics scrape and /v1/stats request pays.
func BenchmarkRollingStats(b *testing.B) {
	r := NewRollingHistogram(60*time.Second, 6)
	for i := 0; i < 10_000; i++ {
		r.Observe(float64(i % 1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Stats()
	}
}
