package federation

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

func ctxb() context.Context { return context.Background() }

func TestAdaptiveCacheValidation(t *testing.T) {
	if _, err := NewAdaptiveCache(0.8, 4, ApproxConfig{MaxPredictedError: -1}); err == nil {
		t.Fatal("accepted negative error bound")
	}
	if _, err := NewAdaptiveCache(0.8, 4, ApproxConfig{MaxPredictedError: 0.3, MinCoverage: 2}); err == nil {
		t.Fatal("accepted coverage > 1")
	}
	// Disabled configs may carry tuning values without tripping anything.
	if _, err := NewAdaptiveCache(0.8, 4, ApproxConfig{MinCoverage: 0.25, ProbeEvery: 8}); err != nil {
		t.Fatal(err)
	}
	c, err := NewAdaptiveCache(0.8, 4, ApproxConfig{MaxPredictedError: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.approx; got.MinCoverage != 0.5 || got.ProbeEvery != 8 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

// TestAdaptiveApproxServes: a query that misses the exact IoU tier but
// whose rectangle is well covered by a cached ensemble's training
// rectangles is answered from the cache with zero training RPCs.
func TestAdaptiveApproxServes(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewAdaptiveCache(0.9, 8, ApproxConfig{
		MaxPredictedError: 0.9, MinCoverage: 0.05, ProbeEvery: -1, // never probe
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}

	res1, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind != ServeFresh {
		t.Fatalf("first execution served %v, want fresh", kind)
	}
	if res1.TrainDims == 0 || len(res1.TrainMins) == 0 {
		t.Fatal("fresh result carries no training rectangles")
	}

	// Shrunk query: IoU with [10,40] is 20/30 < 0.9 (exact miss) but the
	// training rectangles blanket it.
	inner, _ := query.New("q-inner", geometry.MustRect([]float64{15, -50}, []float64{35, 150}))
	res2, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: inner, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind != ServeApprox {
		t.Fatalf("covered query served %v, want approx", kind)
	}
	if res2 != res1 {
		t.Fatal("approx hit returned a different result object")
	}
	st := cache.CacheStats()
	if st.ApproxHits != 1 || !st.ApproxEnabled {
		t.Fatalf("stats %+v: want 1 approx hit", st)
	}

	// A far-away query must fall through to training (fallback).
	far, _ := query.New("q-far", geometry.MustRect([]float64{60, 50}, []float64{90, 200}))
	if _, kind, err = fleet.Leader.Execute(ctxb(), Request{Query: far, Selector: sel, Aggregation: WeightedAveraging, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if kind != ServeFresh {
		t.Fatalf("disjoint query served %v, want fresh", kind)
	}
	// Two fallbacks: the cold-cache first query and the disjoint one.
	if st = cache.CacheStats(); st.Fallbacks != 2 {
		t.Fatalf("stats %+v: want 2 fallbacks", st)
	}
}

// TestAdaptiveProbeTrainsAndScores: with ProbeEvery=1 every approx-
// servable query becomes a ground-truth round — trained fresh, scored
// against the cached answer, and stored.
func TestAdaptiveProbeTrainsAndScores(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewAdaptiveCache(0.9, 8, ApproxConfig{
		MaxPredictedError: 0.9, MinCoverage: 0.05, ProbeEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res1, _, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	inner, _ := query.New("q-inner", geometry.MustRect([]float64{15, -50}, []float64{35, 150}))
	res2, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: inner, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind != ServeProbe {
		t.Fatalf("probe round served %v, want probe", kind)
	}
	if res2 == res1 {
		t.Fatal("probe round must return the freshly trained result")
	}
	st := cache.CacheStats()
	if st.Probes != 1 {
		t.Fatalf("stats %+v: want 1 probe", st)
	}
	if cache.Len() != 2 {
		t.Fatalf("probe result not stored: len %d", cache.Len())
	}
}

// TestAdaptiveResidualEviction: an entry whose probe-measured residual
// outgrows the serve bound is removed by the feedback loop; the EWMA
// (step 0.25) needs two bad probes to get there.
func TestAdaptiveResidualEviction(t *testing.T) {
	cache, err := NewAdaptiveCache(0.9, 4, ApproxConfig{
		MaxPredictedError: 0.3, MinCoverage: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := query.New("s", geometry.MustRect([]float64{0, 0}, []float64{10, 10}))
	res := &Result{Query: q, Ensemble: &Ensemble{},
		TrainMins: []float64{0, 0}, TrainMaxs: []float64{10, 10}, TrainDims: 2}
	cache.store(res, nil, Fence{})
	ent := cache.snapshot()[0]

	// A good probe keeps the entry.
	cache.recordProbe(ent, 0.05)
	if cache.Len() != 1 {
		t.Fatal("well-predicted entry evicted")
	}
	// A terrible one moves the residual to 0.05 + 0.25·0.95 = 0.2875,
	// still inside the bound; a second pushes it to 0.47 and evicts.
	cache.recordProbe(ent, 1.0)
	if cache.Len() != 1 {
		t.Fatal("entry evicted before its residual passed the bound")
	}
	cache.recordProbe(ent, 1.0)
	if cache.Len() != 0 {
		t.Fatal("entry with residual past the bound survived")
	}
	st := cache.CacheStats()
	if st.Evictions != 1 || st.Probes != 3 {
		t.Fatalf("stats %+v: want 1 eviction, 3 probes", st)
	}
}

// TestAdaptiveAnswerTiers exercises the no-fleet Answer entry point the
// gateway uses before rejecting a query with 422.
func TestAdaptiveAnswerTiers(t *testing.T) {
	cache, err := NewAdaptiveCache(0.9, 4, ApproxConfig{MaxPredictedError: 0.6, MinCoverage: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := query.New("s", geometry.MustRect([]float64{0, 0}, []float64{10, 10}))
	cache.store(&Result{Query: q, Ensemble: &Ensemble{},
		TrainMins: []float64{0, 0}, TrainMaxs: []float64{10, 10}, TrainDims: 2}, nil, Fence{})

	exact, _ := query.New("p1", geometry.MustRect([]float64{0, 0}, []float64{10, 10}))
	if _, kind, ok := cache.Answer(exact, 0); !ok || kind != ServeExact {
		t.Fatalf("identical query: ok=%v kind=%v, want exact", ok, kind)
	}
	covered, _ := query.New("p2", geometry.MustRect([]float64{2, 2}, []float64{8, 8}))
	if _, kind, ok := cache.Answer(covered, 0); !ok || kind != ServeApprox {
		t.Fatalf("covered query: ok=%v kind=%v, want approx", ok, kind)
	}
	far, _ := query.New("p3", geometry.MustRect([]float64{100, 100}, []float64{110, 110}))
	if _, _, ok := cache.Answer(far, 0); ok {
		t.Fatal("disjoint query answered")
	}
}

// seedReuseCache reimplements the pre-R-tree cache verbatim (mutex-held
// linear scan, best-IoU with first-entry tie-break, FIFO eviction,
// epoch pruning) as the golden reference for the rewrite.
type seedReuseCache struct {
	minIoU  float64
	cap     int
	entries []*Result
}

func (c *seedReuseCache) lookup(q query.Query, epoch uint64) (*Result, bool) {
	var best *Result
	bestIoU := 0.0
	for _, r := range c.entries {
		if r.Query.Dims() != q.Dims() {
			continue
		}
		if epoch != 0 && r.Epoch != 0 && r.Epoch != epoch {
			continue
		}
		if iou := geometry.IoU(q.Bounds, r.Query.Bounds); iou >= c.minIoU && iou > bestIoU {
			best, bestIoU = r, iou
		}
	}
	return best, best != nil
}

func (c *seedReuseCache) store(res *Result) {
	if res == nil || res.Ensemble == nil {
		return
	}
	if res.Epoch != 0 {
		kept := c.entries[:0]
		for _, r := range c.entries {
			if r.Epoch != 0 && r.Epoch < res.Epoch {
				continue
			}
			kept = append(kept, r)
		}
		c.entries = kept
	}
	if len(c.entries) == c.cap {
		copy(c.entries, c.entries[1:])
		c.entries = c.entries[:len(c.entries)-1]
	}
	c.entries = append(c.entries, res)
}

// TestAdaptiveDisabledGoldenReplay replays a 200-query bursty workload
// through two identically seeded fleets: one on the seed-era serving
// loop (linear-scan cache reimplemented above + uncached Execute), one on
// the rewritten pipeline with the approximate tier disabled. Every
// decision (hit vs train), every participant list and every trained
// parameter must be bit-exact — the R-tree lookup, the Store rewrite
// and the adaptive plumbing may not move a single RNG draw.
func TestAdaptiveDisabledGoldenReplay(t *testing.T) {
	ref := testFleet(t)
	cur := testFleet(t)
	refCache := &seedReuseCache{minIoU: 0.8, cap: 4}
	curCache, err := NewReuseCache(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}

	// Bursty workload: a few hot rectangles revisited with jitter, plus
	// cold scans across the fleet's x range.
	src := rng.New(77)
	queries := make([]query.Query, 0, 200)
	hot := [][2]float64{{10, 40}, {25, 55}, {55, 85}}
	for i := 0; i < 200; i++ {
		var lo, hi float64
		if i%3 != 0 {
			h := hot[(i/3)%len(hot)]
			j := src.Uniform(-1, 1)
			lo, hi = h[0]+j, h[1]+j
		} else {
			lo = src.Uniform(0, 65)
			hi = lo + src.Uniform(8, 25)
		}
		q, qerr := query.New(fmt.Sprintf("g-%d", i), geometry.MustRect(
			[]float64{lo, -100}, []float64{hi, 300}))
		if qerr != nil {
			t.Fatal(qerr)
		}
		queries = append(queries, q)
	}

	for i, q := range queries {
		if i == 80 || i == 150 {
			// Epoch bump on both twins: the fence must invalidate the
			// same entries on both sides.
			ref.Leader.InvalidateSummaries()
			cur.Leader.InvalidateSummaries()
		}

		// Reference: the seed's cache-then-execute loop inlined.
		refEpoch := ref.Leader.Registry().ReuseEpoch()
		refRes, refReused := refCache.lookup(q, refEpoch)
		var refErr error
		if !refReused {
			refRes, refErr = execute(ref.Leader, q, sel, WeightedAveraging)
			if refErr == nil {
				refCache.store(refRes)
			}
		}

		curRes, curReused, curErr := executeCached(cur.Leader, curCache, q, sel, WeightedAveraging)

		if (refErr == nil) != (curErr == nil) {
			t.Fatalf("q%d: error divergence: ref=%v cur=%v", i, refErr, curErr)
		}
		if refErr != nil {
			continue
		}
		if refReused != curReused {
			t.Fatalf("q%d: reuse decision diverged: ref=%v cur=%v", i, refReused, curReused)
		}
		if len(refRes.Participants) != len(curRes.Participants) {
			t.Fatalf("q%d: participant count %d vs %d", i, len(refRes.Participants), len(curRes.Participants))
		}
		for j := range refRes.Participants {
			if refRes.Participants[j].NodeID != curRes.Participants[j].NodeID {
				t.Fatalf("q%d: participant %d: %s vs %s", i, j,
					refRes.Participants[j].NodeID, curRes.Participants[j].NodeID)
			}
		}
		if len(refRes.LocalParams) != len(curRes.LocalParams) {
			t.Fatalf("q%d: param set %d vs %d", i, len(refRes.LocalParams), len(curRes.LocalParams))
		}
		for j := range refRes.LocalParams {
			a, b := refRes.LocalParams[j].Values, curRes.LocalParams[j].Values
			if len(a) != len(b) {
				t.Fatalf("q%d: params %d length %d vs %d", i, j, len(a), len(b))
			}
			for k := range a {
				if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
					t.Fatalf("q%d: params %d[%d] diverged: %v vs %v", i, j, k, a[k], b[k])
				}
			}
		}
	}
	if len(refCache.entries) != curCache.Len() {
		t.Fatalf("final cache size diverged: ref=%d cur=%d", len(refCache.entries), curCache.Len())
	}
}

// stressResult is the i-th stored result of the cache stress fixture:
// a 5x10 window sliding over x in [0,50), its own rectangle as the one
// training rectangle, every 17th with a third dimension, the epoch
// advancing every 400.
func stressResult(i int) *Result {
	lo := float64(i % 50)
	dims := []float64{lo, 0}
	his := []float64{lo + 5, 10}
	if i%17 == 0 { // mixed dimensionality
		dims = []float64{lo, 0, 0}
		his = []float64{lo + 5, 10, 10}
	}
	q, _ := query.New(fmt.Sprintf("s-%d", i), geometry.MustRect(dims, his))
	return &Result{
		Query: q, Ensemble: &Ensemble{}, Epoch: uint64(1 + i/400),
		TrainMins: append([]float64(nil), dims...),
		TrainMaxs: append([]float64(nil), his...),
		TrainDims: len(dims),
	}
}

// TestReuseCacheConcurrentStress hammers Store / lookup /
// Answer / CacheStats / Len from many goroutines, with mixed dims,
// advancing epochs (exercising the prune-on-store path) and capacity
// churn. Run under -race (make check does); the assertions are only
// internal-consistency ones.
func TestReuseCacheConcurrentStress(t *testing.T) {
	for _, tc := range []struct {
		name   string
		approx ApproxConfig
	}{
		{"exact-only", ApproxConfig{}},
		{"approx-on", ApproxConfig{MaxPredictedError: 0.5, MinCoverage: 0.1, ProbeEvery: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := NewAdaptiveCache(0.7, 16, tc.approx)
			if err != nil {
				t.Fatal(err)
			}
			const workers, ops = 8, 800
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						n := w*ops + i
						switch i % 5 {
						case 0:
							cache.store(stressResult(n), nil, Fence{})
						case 1:
							q, _ := query.New("p", geometry.MustRect(
								[]float64{float64(n % 50), 0}, []float64{float64(n%50) + 5, 10}))
							cache.lookup(q, reuseKey{}, Fence{})
						case 2:
							q, _ := query.New("p", geometry.MustRect(
								[]float64{float64(n % 50), 0}, []float64{float64(n%50) + 5, 10}))
							cache.lookup(q, reuseKey{}, Fence{Epoch: uint64(1 + n/400)})
						case 3:
							q, _ := query.New("p", geometry.MustRect(
								[]float64{float64(n%50) + 1, 1}, []float64{float64(n%50) + 4, 9}))
							cache.Answer(q, 0)
						case 4:
							st := cache.CacheStats()
							if st.Size < 0 || st.Size > 16 {
								panic(fmt.Sprintf("size %d out of bounds", st.Size))
							}
							_ = cache.Len()
						}
					}
				}(w)
			}
			wg.Wait()
			if cache.Len() > 16 {
				t.Fatalf("capacity breached: %d", cache.Len())
			}
		})
	}
}
