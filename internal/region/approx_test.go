package region

import (
	"context"
	"fmt"
	"testing"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// TestRouterApproxTierServes: after an exact-IoU miss, a valid cached
// entry that blankets the new query serves it — reported as the approx
// tier so clients can tell a subspace answer from an exact replay.
func TestRouterApproxTierServes(t *testing.T) {
	router, _ := reuseFixture(t, 0.95, 8, federation.ApproxConfig{MaxPredictedError: 0.5, ProbeEvery: 3})
	ctx := context.Background()
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}

	wide := mustQuery(t, "q-wide", 0, 34, -500, 500)
	if _, kind, err := router.run(ctx, wide, sel, federation.ModelAveraging); err != nil || kind != federation.ServeFresh {
		t.Fatalf("first execution: kind=%v err=%v", kind, err)
	}
	// Contained query: IoU (area ratio) is well under 0.95 but the wide
	// entry covers it completely.
	inner := mustQuery(t, "q-inner", 5, 30, -400, 400)
	res, kind, err := router.run(ctx, inner, sel, federation.ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if kind != federation.ServeApprox {
		t.Fatalf("contained query: kind=%v, want approx", kind)
	}
	if res == nil || !kind.Reused() {
		t.Fatal("approx serve must be a reused result")
	}
	if st := router.cache.CacheStats(); st.ApproxHits != 1 || !st.ApproxEnabled {
		t.Fatalf("reuse stats %+v: want 1 approx hit", st)
	}

	// Approx serves still count as reused for callers that only ask
	// whether training happened.
	inner2 := mustQuery(t, "q-inner-2", 6, 29, -400, 400)
	if _, kind, err := router.run(ctx, inner2, sel, federation.ModelAveraging); err != nil || !kind.Reused() {
		t.Fatalf("second approx serve: kind=%v err=%v", kind, err)
	}

	// Every third servable query trains anyway and scores the cached
	// answer against the fresh one, which is stored.
	inner3 := mustQuery(t, "q-inner-3", 7, 28, -400, 400)
	probe, kind, err := router.run(ctx, inner3, sel, federation.ModelAveraging)
	if err != nil || kind != federation.ServeProbe || probe == res {
		t.Fatalf("probe round: kind=%v err=%v fresh=%v", kind, err, probe != res)
	}
	if st := router.cache.CacheStats(); st.Probes != 1 || st.Size != 2 {
		t.Fatalf("reuse stats %+v: want 1 probe and its result stored", st)
	}
}

// TestRouterApproxDisabledGoldenReplay pins a disabled approx tier to the
// seed semantics: a 60-query replay where the expected hit/miss
// decision is computed by an inline reference of the original root
// cache (insertion-order scan, first entry at or above the IoU
// threshold wins). Any divergence — an approx serve leaking in, a scan
// order change — fails the replay.
func TestRouterApproxDisabledGoldenReplay(t *testing.T) {
	router, _ := reuseFixture(t, 0.9, 4, federation.ApproxConfig{})
	ctx := context.Background()
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}

	type refEntry struct {
		bounds geometry.Rect
		res    *federation.Result
	}
	var ref []refEntry
	refLookup := func(q query.Query) *federation.Result {
		for _, e := range ref {
			if geometry.IoU(e.bounds, q.Bounds) >= 0.9 {
				return e.res
			}
		}
		return nil
	}
	refStore := func(q query.Query, res *federation.Result) {
		if len(ref) == 4 {
			ref = ref[1:]
		}
		ref = append(ref, refEntry{bounds: q.Bounds.Clone(), res: res})
	}

	src := rng.New(99)
	hot := [][2]float64{{0, 22}, {12, 34}, {40, 62}}
	for i := 0; i < 60; i++ {
		var lo, hi float64
		if i%2 == 0 {
			h := hot[(i/2)%len(hot)]
			j := src.Uniform(-0.5, 0.5)
			lo, hi = h[0]+j, h[1]+j
		} else {
			lo = src.Uniform(0, 50)
			hi = lo + src.Uniform(10, 24)
		}
		q := mustQuery(t, fmt.Sprintf("r-%d", i), lo, hi, -500, 500)

		want := refLookup(q)
		res, kind, err := router.run(ctx, q, sel, federation.ModelAveraging)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		if kind == federation.ServeApprox {
			t.Fatalf("q%d: approx serve with the tier disabled", i)
		}
		if want != nil {
			if kind != federation.ServeExact || res != want {
				t.Fatalf("q%d: want exact hit on stored entry, got kind=%v match=%v",
					i, kind, res == want)
			}
		} else {
			if kind != federation.ServeFresh {
				t.Fatalf("q%d: reference expects a fresh execution, got %v", i, kind)
			}
			refStore(q, res)
		}
	}
	st := router.cache.CacheStats()
	if st.ApproxHits != 0 || st.ApproxEnabled {
		t.Fatalf("reuse stats %+v: approx tier must stay silent", st)
	}
	if st.Hits == 0 {
		t.Fatalf("reuse stats %+v: hot workload produced no hits", st)
	}
}
