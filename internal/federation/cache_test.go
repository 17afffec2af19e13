package federation

import (
	"context"
	"errors"
	"testing"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

func TestNewReuseCacheValidation(t *testing.T) {
	if _, err := NewReuseCache(0, 5); err == nil {
		t.Fatal("accepted IoU 0")
	}
	if _, err := NewReuseCache(1.5, 5); err == nil {
		t.Fatal("accepted IoU > 1")
	}
	if _, err := NewReuseCache(0.8, 0); err == nil {
		t.Fatal("accepted capacity 0")
	}
}

func TestReuseCacheHitAndMiss(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.7, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	q := midQuery(t)

	res1, reused, err := executeCached(fleet.Leader, cache, q, sel, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first execution cannot be a cache hit")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len %d", cache.Len())
	}

	// An almost identical query must hit.
	near, _ := query.New("q-near", geometry.MustRect(
		[]float64{10.5, -50}, []float64{40, 150}))
	res2, reused, err := executeCached(fleet.Leader, cache, near, sel, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("near-identical query missed the cache")
	}
	if res2 != res1 {
		t.Fatal("hit returned a different result object")
	}

	// A far-away query (still supported by the fleet) must miss.
	far, _ := query.New("q-far", geometry.MustRect(
		[]float64{60, 50}, []float64{90, 200}))
	_, reused, err = executeCached(fleet.Leader, cache, far, sel, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("disjoint query hit the cache")
	}
	if st := cache.CacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %d/%d, want 1/2", st.Hits, st.Misses)
	}
}

func TestReuseCacheEviction(t *testing.T) {
	cache, _ := NewReuseCache(0.99, 2)
	mk := func(lo float64) *Result {
		q, _ := query.New("q", geometry.MustRect([]float64{lo, 0}, []float64{lo + 1, 1}))
		return &Result{Query: q, Ensemble: &Ensemble{}}
	}
	cache.store(mk(0), nil, Fence{})
	cache.store(mk(10), nil, Fence{})
	cache.store(mk(20), nil, Fence{}) // evicts the first
	if cache.Len() != 2 {
		t.Fatalf("len %d", cache.Len())
	}
	q0, _ := query.New("probe", geometry.MustRect([]float64{0, 0}, []float64{1, 1}))
	if _, ok := cache.lookup(q0, reuseKey{}, Fence{}); ok {
		t.Fatal("evicted entry still served")
	}
	q20, _ := query.New("probe", geometry.MustRect([]float64{20, 0}, []float64{21, 1}))
	if _, ok := cache.lookup(q20, reuseKey{}, Fence{}); !ok {
		t.Fatal("fresh entry missing")
	}
}

func TestReuseCacheIgnoresNilResults(t *testing.T) {
	cache, _ := NewReuseCache(0.9, 2)
	cache.store(nil, nil, Fence{})
	cache.store(&Result{}, nil, Fence{}) // no ensemble
	if cache.Len() != 0 {
		t.Fatalf("len %d", cache.Len())
	}
}

// TestReuseCacheEpochFencing pins the versioned-lookup contract:
// epoch-stamped entries only match their own epoch, Epoch-0 entries
// (legacy callers) match anything, and storing a newer-epoch result
// prunes the strictly older generations.
func TestReuseCacheEpochFencing(t *testing.T) {
	cache, _ := NewReuseCache(0.9, 8)
	mk := func(id string, lo float64, epoch uint64) *Result {
		q, _ := query.New(id, geometry.MustRect([]float64{lo, 0}, []float64{lo + 1, 1}))
		return &Result{Query: q, Ensemble: &Ensemble{}, Epoch: epoch}
	}
	cache.store(mk("old", 0, 1), nil, Fence{})
	cache.store(mk("legacy", 10, 0), nil, Fence{})

	probe, _ := query.New("p", geometry.MustRect([]float64{0, 0}, []float64{1, 1}))
	if _, ok := cache.lookup(probe, reuseKey{}, Fence{Epoch: 1}); !ok {
		t.Fatal("same-epoch lookup missed")
	}
	if _, ok := cache.lookup(probe, reuseKey{}, Fence{Epoch: 2}); ok {
		t.Fatal("stale epoch-1 entry served at epoch 2")
	}
	if _, ok := cache.lookup(probe, reuseKey{}, Fence{}); !ok {
		t.Fatal("an unfenced lookup must ignore epochs")
	}
	legacyProbe, _ := query.New("p", geometry.MustRect([]float64{10, 0}, []float64{11, 1}))
	if _, ok := cache.lookup(legacyProbe, reuseKey{}, Fence{Epoch: 7}); !ok {
		t.Fatal("Epoch-0 entry must match any epoch")
	}

	// Storing an epoch-3 result prunes the epoch-1 entry but keeps the
	// legacy Epoch-0 one.
	cache.store(mk("new", 20, 3), nil, Fence{})
	if cache.Len() != 2 {
		t.Fatalf("len %d after pruning, want 2 (legacy + new)", cache.Len())
	}
	if _, ok := cache.lookup(probe, reuseKey{}, Fence{Epoch: 1}); ok {
		t.Fatal("pruned epoch-1 entry still served")
	}
}

// TestExecuteCachedEpochInvalidation is the end-to-end version of
// the stale-ensemble fix: after InvalidateSummaries the advertisement
// epoch moves, the cached result stops matching, and the same query
// retrains instead of serving the pre-invalidation ensemble.
func TestExecuteCachedEpochInvalidation(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	q := midQuery(t)

	res1, reused, err := executeCached(fleet.Leader, cache, q, sel, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first execution cannot be a hit")
	}
	if res1.Epoch == 0 {
		t.Fatal("result missing the advertisement epoch stamp")
	}
	if _, reused, _ = executeCached(fleet.Leader, cache, q, sel, WeightedAveraging); !reused {
		t.Fatal("identical query at the same epoch must hit")
	}

	fleet.Leader.InvalidateSummaries()

	res2, reused, err := executeCached(fleet.Leader, cache, q, sel, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("post-invalidation query served the stale ensemble")
	}
	if res2.Epoch <= res1.Epoch {
		t.Fatalf("epoch did not advance: %d then %d", res1.Epoch, res2.Epoch)
	}
	// The fresh result replaced the stale generation in the cache and
	// now serves hits at the new epoch.
	if _, reused, _ = executeCached(fleet.Leader, cache, q, sel, WeightedAveraging); !reused {
		t.Fatal("retrained result not cached at the new epoch")
	}
}

// TestReuseKeyedBySelectorAndAggregation: reuse is keyed by (selector
// name, aggregation) and limited to deterministic selectors — an
// all-nodes/averaging request is not answered with the cached
// query-driven/weighted ensemble, and a random selection neither reuses
// nor is stored, on the execute path and on the cache-only path alike.
func TestReuseKeyedBySelectorAndAggregation(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := midQuery(t)
	qd := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	first, _, err := executeCached(fleet.Leader, cache, q, qd, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	cacheOnly := func(sel selection.Selector, agg Aggregation) error {
		_, _, err := fleet.Leader.Execute(context.Background(),
			Request{Query: q, Selector: sel, Aggregation: agg, Cache: cache, CacheOnly: true})
		return err
	}
	for _, other := range []struct {
		sel selection.Selector
		agg Aggregation
	}{
		{selection.AllNodes{}, ModelAveraging},
		{selection.AllNodes{}, WeightedAveraging},
		{qd, ModelAveraging},
	} {
		if err := cacheOnly(other.sel, other.agg); !errors.Is(err, ErrNotCached) {
			t.Fatalf("%s/%v cache-only: err = %v, want ErrNotCached", other.sel.Name(), other.agg, err)
		}
		res, reused, err := executeCached(fleet.Leader, cache, q, other.sel, other.agg)
		if err != nil {
			t.Fatal(err)
		}
		if reused || res == first {
			t.Fatalf("%s/%v answered with the cached query-driven/weighted result", other.sel.Name(), other.agg)
		}
		if res.Selector != other.sel.Name() || res.Aggregation != other.agg {
			t.Fatalf("got a %s/%v result for a %s/%v request", res.Selector, res.Aggregation, other.sel.Name(), other.agg)
		}
	}
	if res, reused, _ := executeCached(fleet.Leader, cache, q, qd, WeightedAveraging); !reused || res != first {
		t.Fatal("the original key stopped hitting")
	}
	if err := cacheOnly(qd, WeightedAveraging); err != nil {
		t.Fatalf("cache-only on the original key: %v", err)
	}

	stored := cache.Len()
	rnd := selection.Random{L: 2}
	for i := 0; i < 2; i++ {
		if _, reused, err := executeCached(fleet.Leader, cache, q, rnd, WeightedAveraging); err != nil || reused {
			t.Fatalf("random run %d: reused=%v err=%v, want a fresh training", i, reused, err)
		}
	}
	if cache.Len() != stored {
		t.Fatalf("random results were stored: %d -> %d entries", stored, cache.Len())
	}
	if err := cacheOnly(rnd, WeightedAveraging); !errors.Is(err, ErrNotCached) {
		t.Fatalf("random cache-only: err = %v, want ErrNotCached", err)
	}
}

func TestIoU(t *testing.T) {
	a := geometry.MustRect([]float64{0, 0}, []float64{10, 10})
	if got := geometry.IoU(a, a); got != 1 {
		t.Fatalf("self IoU %v", got)
	}
	b := geometry.MustRect([]float64{5, 0}, []float64{15, 10})
	// inter 50, union 150.
	if got := geometry.IoU(a, b); got < 0.33 || got > 0.34 {
		t.Fatalf("half-shift IoU %v", got)
	}
	c := geometry.MustRect([]float64{100, 100}, []float64{110, 110})
	if got := geometry.IoU(a, c); got != 0 {
		t.Fatalf("disjoint IoU %v", got)
	}
	// Degenerate point rectangles.
	p := geometry.MustRect([]float64{5, 5}, []float64{5, 5})
	if got := geometry.IoU(p, p); got != 1 {
		t.Fatalf("point self IoU %v", got)
	}
}

// rtreeWinners replays both lookup tiers the way the cache ran them
// while it kept an STR R-tree per tier: walk the tree of the entries'
// query rectangles (exact) or training bounding boxes (approx) for the
// ones intersecting q, score each visit, best score wins and the older
// entry keeps a tie. It is the reference the linear pass must match.
func rtreeWinners(t *testing.T, c *ReuseCache, q query.Query) (exact *Result, approx *cacheEntry) {
	t.Helper()
	entries := c.snapshot()
	walk := func(rect func(*cacheEntry) (geometry.Rect, bool), visit func(pos int, e *cacheEntry)) {
		var indexed []geometry.Entry
		for i, e := range entries {
			if r, ok := rect(e); ok && r.Dims() == q.Dims() {
				indexed = append(indexed, geometry.Entry{Rect: r, ID: i})
			}
		}
		if len(indexed) == 0 {
			return
		}
		tree, err := geometry.BuildRTree(indexed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Search(q.Bounds, func(ent geometry.Entry) bool {
			visit(ent.ID, entries[ent.ID])
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}

	bestPos, bestIoU := -1, 0.0
	walk(func(e *cacheEntry) (geometry.Rect, bool) { return e.res.Query.Bounds, true },
		func(pos int, e *cacheEntry) {
			iou := geometry.IoU(q.Bounds, e.res.Query.Bounds)
			if iou < c.minIoU {
				return
			}
			if bestPos < 0 || iou > bestIoU || (iou == bestIoU && pos < bestPos) {
				bestPos, bestIoU = pos, iou
			}
		})
	if bestPos >= 0 {
		exact = entries[bestPos].res
	}

	bestPos = -1
	bestPred := 0.0
	walk(func(e *cacheEntry) (geometry.Rect, bool) {
		if e.coverage == nil {
			return geometry.Rect{}, false
		}
		return e.coverage.Bounds(), true
	}, func(pos int, e *cacheEntry) {
		cov := geometry.QueryCoverageFlat(q.Bounds.Min, q.Bounds.Max, e.res.TrainMins, e.res.TrainMaxs)
		if cov < c.approx.MinCoverage {
			return
		}
		pred := (1 - cov) + e.residual()
		if bestPos < 0 || pred < bestPred || (pred == bestPred && pos < bestPos) {
			bestPos, bestPred = pos, pred
		}
	})
	if bestPos >= 0 && bestPred <= c.approx.MaxPredictedError {
		approx = entries[bestPos]
	}
	return exact, approx
}

// TestLinearScanMatchesRTreeWinners: dropping the per-publish R-trees
// for a pass over the snapshot may not change a single answer. Both
// fixtures are replayed through the old index walk and the cache.
func TestLinearScanMatchesRTreeWinners(t *testing.T) {
	rect := func(lo0, lo1, hi0, hi1 float64) query.Query {
		q, err := query.New("p", geometry.MustRect([]float64{lo0, lo1}, []float64{hi0, hi1}))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// TestAdaptiveAnswerTiers' cache and its three probes.
	tiers, err := NewAdaptiveCache(0.9, 4, ApproxConfig{MaxPredictedError: 0.6, MinCoverage: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tiers.store(&Result{Query: rect(0, 0, 10, 10), Ensemble: &Ensemble{},
		TrainMins: []float64{0, 0}, TrainMaxs: []float64{10, 10}, TrainDims: 2}, nil, Fence{})
	tierProbes := []query.Query{rect(0, 0, 10, 10), rect(2, 2, 8, 8), rect(100, 100, 110, 110)}

	// TestReuseCacheConcurrentStress' entries at the serving capacity.
	// The second half repeats the first half's rectangles, so every
	// probe that matches at all matches an older and a newer twin, and
	// a few residuals are moved off zero so approx scores differ.
	stress, err := NewAdaptiveCache(0.7, 32, ApproxConfig{MaxPredictedError: 0.5, MinCoverage: 0.1, ProbeEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		stress.store(stressResult(i*3), nil, Fence{})
	}
	for i := 0; i < 16; i++ {
		stress.store(stressResult(i*3+50), nil, Fence{})
	}
	for i, e := range stress.snapshot() {
		if i%5 == 2 {
			e.observeResidual(0.05 * float64(i%4))
		}
	}
	var stressProbes []query.Query
	for n := 0; n < 50; n++ {
		lo := float64(n)
		stressProbes = append(stressProbes,
			rect(lo, 0, lo+5, 10),       // a stored rectangle, or between two
			rect(lo+1, 1, lo+4, 9),      // contained: several entries cover it fully
			rect(lo+0.5, 0, lo+5.5, 10), // half a step off: IoU 0.82 with two neighbours
			rect(lo, 0, lo+12, 10))      // wide: partial coverage everywhere
	}
	q3, _ := query.New("p3", geometry.MustRect([]float64{0, 0, 0}, []float64{5, 10, 10}))
	stressProbes = append(stressProbes, q3, rect(200, 0, 205, 10), rect(52, 20, 60, 30))

	for _, fx := range []struct {
		name   string
		cache  *ReuseCache
		probes []query.Query
	}{{"answer-tiers", tiers, tierProbes}, {"stress", stress, stressProbes}} {
		exactHits, approxHits := 0, 0
		for _, q := range fx.probes {
			wantExact, wantApprox := rtreeWinners(t, fx.cache, q)
			gotExact, _ := fx.cache.lookup(q, reuseKey{}, Fence{})
			gotApprox, _ := fx.cache.lookupApprox(q, reuseKey{}, Fence{})
			if gotExact != wantExact {
				t.Errorf("%s %v: exact winner %v, R-tree walk %v", fx.name, q.Bounds, gotExact, wantExact)
			}
			if gotApprox != wantApprox {
				t.Errorf("%s %v: approx winner %v, R-tree walk %v", fx.name, q.Bounds, gotApprox, wantApprox)
			}
			if gotExact != nil {
				exactHits++
			}
			if gotApprox != nil {
				approxHits++
			}
		}
		if exactHits == 0 || approxHits == 0 || exactHits == len(fx.probes) || approxHits == len(fx.probes) {
			t.Errorf("%s: %d exact / %d approx winners over %d probes: the table does not exercise both outcomes",
				fx.name, exactHits, approxHits, len(fx.probes))
		}
	}
}

// TestStoreRaggedTrainingRectangles: a result whose flat training
// rectangles are malformed used to be stored with a bounding box and
// then panic inside every later approx lookup. It must be kept as an
// exact-tier-only entry instead.
func TestStoreRaggedTrainingRectangles(t *testing.T) {
	cache, err := NewAdaptiveCache(0.9, 4, ApproxConfig{MaxPredictedError: 0.6, MinCoverage: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := query.New("s", geometry.MustRect([]float64{0, 0}, []float64{10, 10}))
	for _, bad := range []*Result{
		{TrainMins: []float64{0, 0, 1}, TrainMaxs: []float64{10, 10, 9}, TrainDims: 2}, // not a multiple of dims
		{TrainMins: []float64{0, 0, 1, 1}, TrainMaxs: []float64{10, 10}, TrainDims: 2}, // mins/maxs disagree
	} {
		bad.Query, bad.Ensemble = q, &Ensemble{}
		cache.store(bad, nil, Fence{})
	}
	if cache.Len() != 2 {
		t.Fatalf("len %d, want both results stored", cache.Len())
	}
	covered, _ := query.New("p", geometry.MustRect([]float64{2, 2}, []float64{8, 8}))
	if _, _, ok := cache.Answer(covered, 0); ok {
		t.Fatal("an entry without a usable training pack served the approx tier")
	}
	if res, kind, ok := cache.Answer(q, 0); !ok || kind != ServeExact || res.TrainDims != 2 {
		t.Fatalf("identical query: ok=%v kind=%v, want an exact hit", ok, kind)
	}
}

// TestReuseLookupDoesNotAllocate pins the whole hit path — both lookup
// tiers and Serve around them — at zero heap allocations on a full
// cache of the serving capacity.
func TestReuseLookupDoesNotAllocate(t *testing.T) {
	cache, err := NewAdaptiveCache(0.9, 32, ApproxConfig{MaxPredictedError: 0.5, MinCoverage: 0.1, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	for i := 1; i <= 32; i++ { // 1..32 skips the fixture's 3-D results
		res := stressResult(i)
		res.Selector, res.Aggregation = sel.Name(), WeightedAveraging
		cache.store(res, nil, Fence{})
	}
	key := reuseKey{sel.Name(), WeightedAveraging}
	fence := Fence{Epoch: 1}
	stored, _ := query.New("p", geometry.MustRect([]float64{20, 0}, []float64{25, 10}))
	inner, _ := query.New("p", geometry.MustRect([]float64{21, 1}, []float64{24, 9}))
	req := Request{Query: inner, Selector: sel, Aggregation: WeightedAveraging, Cache: cache, CacheOnly: true}
	for name, fn := range map[string]func() bool{
		"lookup": func() bool { _, ok := cache.lookup(stored, key, fence); return ok },
		"lookupApprox": func() bool {
			_, missed := cache.lookup(inner, key, fence)
			_, ok := cache.lookupApprox(inner, key, fence)
			return ok && !missed
		},
		"Serve approx hit": func() bool {
			_, kind, err := Serve(req, Tier{Fence: fence})
			return err == nil && kind == ServeApprox
		},
	} {
		if !fn() {
			t.Fatalf("%s: not the hit it is meant to measure", name)
		}
		if n := testing.AllocsPerRun(100, func() { fn() }); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
