package federation

import (
	"context"
	"fmt"
	"testing"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// benchReplayQueries builds the deterministic serving workload for
// BenchmarkReuseReplay: three wide "anchor" rectangles that arrive
// early and then a stream dominated by jittered sub-windows of those
// anchors (the contained-query pattern the approximate tier exists
// for: exact IoU misses because the areas differ, but the anchor's
// training rectangles blanket the sub-window), with every fourth
// query a cold scan neither mode can reuse.
func benchReplayQueries(b *testing.B, n int) []query.Query {
	b.Helper()
	src := rng.New(2024)
	anchors := [][2]float64{{0, 40}, {25, 65}, {50, 90}}
	qs := make([]query.Query, 0, n)
	add := func(i int, lo, hi float64) {
		q, err := query.New(fmt.Sprintf("replay-%d", i),
			geometry.MustRect([]float64{lo, -20}, []float64{hi, 200}))
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, q)
	}
	for i := 0; i < len(anchors) && i < n; i++ {
		add(i, anchors[i][0], anchors[i][1])
	}
	for i := len(anchors); i < n; i++ {
		if i%4 == 0 {
			lo := src.Uniform(0, 70)
			add(i, lo, lo+src.Uniform(10, 22))
			continue
		}
		a := anchors[i%len(anchors)]
		lo := a[0] + src.Uniform(1, 12)
		hi := a[1] - src.Uniform(1, 12)
		add(i, lo, hi)
	}
	return qs
}

func benchReplayFleet(b *testing.B) *Fleet {
	b.Helper()
	data := []*dataset.Dataset{
		lineDataset(200, 2, 1, 0, 30, 10),
		lineDataset(200, 2, 1, 20, 60, 11),
		lineDataset(200, 2, 1, 50, 90, 12),
	}
	cfg := Config{Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 5, Seed: 7}
	fleet, err := NewSimulatedFleet(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fleet
}

// BenchmarkReuseReplay replays the same 48-query workload through the
// original exact-only reuse cache (mode=seed) and through the
// adaptive cache with the approximate model-answer tier enabled
// (mode=approx). Beyond ns/op it reports the two numbers the serving
// contract is written in:
//
//	trained_queries — federated training executions per replay (fresh
//	                  plus probe rounds); the approximate tier's whole
//	                  purpose is driving this down.
//	mse             — mean held-out MSE of the served answers over the
//	                  query subspace, so the training savings can be
//	                  priced in answer quality.
//
// The reuse gate of scripts/benchgate checks trained_queries[approx]
// / trained_queries[seed] <= 0.70 (a >= 30% cut) and mse[approx] /
// mse[seed] <= 2.
func BenchmarkReuseReplay(b *testing.B) {
	const replayLen = 48
	sel := selection.QueryDriven{Epsilon: 0.4, TopL: 2}
	modes := []struct {
		name  string
		build func() (*ReuseCache, error)
	}{
		{"mode=seed", func() (*ReuseCache, error) {
			return NewReuseCache(0.9, 16)
		}},
		{"mode=approx", func() (*ReuseCache, error) {
			return NewAdaptiveCache(0.9, 16, ApproxConfig{
				MaxPredictedError: 0.35,
				MinCoverage:       0.5,
				ProbeEvery:        8,
			})
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			fleet := benchReplayFleet(b)
			queries := benchReplayQueries(b, replayLen)
			ctx := context.Background()

			var trained, served int
			var sumMSE float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache, err := mode.build()
				if err != nil {
					b.Fatal(err)
				}
				for _, q := range queries {
					res, kind, err := fleet.Leader.Execute(ctx, Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
					if err != nil {
						b.Fatal(err)
					}
					if kind == ServeFresh || kind == ServeProbe {
						trained++
					}
					if mse, _, ok := EvaluateResult(res, fleet.Test); ok {
						sumMSE += mse
						served++
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(trained)/float64(b.N), "trained_queries")
			if served > 0 {
				b.ReportMetric(sumMSE/float64(served), "mse")
			}
		})
	}
}

// BenchmarkReuseLookup prices one cache hit — Serve in cache-only mode,
// so the exact scan and, for tier=approx, the coverage scan behind its
// miss — on a full cache at the serving capacity (32, what qens-gateway
// and the repository benchmark use) and at 1024, where the pass over
// the snapshot is 32x longer. Every entry carries 12 training
// rectangles (ℓ=3 nodes x K=4 clusters). The reuse gate of
// scripts/benchgate fails when a row allocates or not all four run.
func BenchmarkReuseLookup(b *testing.B) {
	sel := selection.QueryDriven{Epsilon: 0.4, TopL: 3}
	window := func(id string, lo, hi float64) query.Query {
		q, err := query.New(id, geometry.MustRect([]float64{lo, -20}, []float64{hi, 200}))
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	for _, capacity := range []int{32, 1024} {
		cache, err := NewAdaptiveCache(0.9, capacity, ApproxConfig{MaxPredictedError: 0.35, ProbeEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		// 40-wide windows sliding over x in [0,100): neighbours overlap
		// heavily, as anchors of one workload do.
		step := 60.0 / float64(capacity)
		for i := 0; i < capacity; i++ {
			lo := float64(i) * step
			res := &Result{
				Query: window(fmt.Sprintf("anchor-%d", i), lo, lo+40), Ensemble: &Ensemble{},
				Selector: sel.Name(), Aggregation: WeightedAveraging, TrainDims: 2,
			}
			for k := 0; k < 12; k++ {
				klo := lo - 2 + float64(k)*3.5
				res.TrainMins = append(res.TrainMins, klo, -30+float64(k%4)*50)
				res.TrainMaxs = append(res.TrainMaxs, klo+5, 40+float64(k%4)*50)
			}
			cache.store(res, nil, Fence{})
		}
		mid := float64(capacity/2) * step
		for _, tier := range []struct {
			name string
			q    query.Query
			want ServeKind
		}{
			{"tier=exact", window("hit", mid, mid+40), ServeExact},
			{"tier=approx", window("sub", mid+6, mid+34), ServeApprox},
		} {
			b.Run(fmt.Sprintf("%s/cap=%d", tier.name, capacity), func(b *testing.B) {
				req := Request{Query: tier.q, Selector: sel, Aggregation: WeightedAveraging, Cache: cache, CacheOnly: true}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, kind, err := Serve(req, Tier{}); err != nil || kind != tier.want {
						b.Fatalf("served %v, err %v; want %v", kind, err, tier.want)
					}
				}
			})
		}
	}
}
