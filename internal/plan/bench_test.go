package plan

import (
	"context"
	"fmt"
	"testing"

	"qens/internal/cluster"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// localizedSummaries builds an edge-realistic fleet for the at-scale
// rows: every node's clusters sit in a small neighbourhood of the
// node's own center (edge nodes see local data), with 1% of the fleet
// deliberately placed inside the [40,60]^d hotspot that hotspotQuery
// probes. Unlike synthSummaries' full-space scatter, this gives the
// R-tree real pruning work at high d: almost no cold node can overlap
// the query in ≥ ε of its dimensions.
func localizedSummaries(n, k, d int, seed uint64) []cluster.NodeSummary {
	src := rng.New(seed)
	out := make([]cluster.NodeSummary, 0, n)
	for i := 0; i < n; i++ {
		center := make([]float64, d)
		hot := i%100 == 0
		for j := 0; j < d; j++ {
			if hot {
				center[j] = src.Uniform(45, 55)
			} else {
				center[j] = src.Uniform(0, 100)
			}
		}
		s := cluster.NodeSummary{NodeID: fmt.Sprintf("node-%05d", i), Epoch: 1}
		total := 0
		for c := 0; c < k; c++ {
			min := make([]float64, d)
			max := make([]float64, d)
			for j := 0; j < d; j++ {
				lo := center[j] + src.Uniform(-2, 2)
				min[j], max[j] = lo, lo+src.Uniform(0.5, 4)
			}
			size := 10 + src.Intn(200)
			total += size
			s.Clusters = append(s.Clusters, cluster.Summary{
				Bounds: geometry.MustRect(min, max), Size: size,
			})
		}
		s.TotalSamples = total
		out = append(out, s)
	}
	return out
}

// hotspotQuery covers the localized fleet's hot region in every
// dimension, so the TopL candidates are the ~1% hot nodes.
func hotspotQuery(d int) query.Query {
	min := make([]float64, d)
	max := make([]float64, d)
	for j := 0; j < d; j++ {
		min[j], max[j] = 40, 60
	}
	q, err := query.New("bench-hotspot", geometry.MustRect(min, max))
	if err != nil {
		panic(err)
	}
	return q
}

// BenchmarkPlan measures the pure-CPU planning hot path — snapshot →
// Eq. 2–4 ranking → TopL selection — across fleet sizes N and query
// dimensionalities d. The query-driven fast path must stay at
// 0 allocs/op at every size (enforced hard by TestPlanZeroAlloc;
// visible here via -benchmem), and the N=10000 rows must stay
// sub-millisecond at d=16 — both checked in CI by the plan gate of
// scripts/benchgate.
// The small-N rows keep the historical full-space scatter (weak
// pruning, kernel-bound); the N=10000 rows use the localized fleet at
// the paper's ε=0.6, where the R-tree does the heavy lifting.
func BenchmarkPlan(b *testing.B) {
	type row struct {
		n, d      int
		summaries []cluster.NodeSummary
		q         query.Query
		sel       selection.Selector
	}
	rows := make([]row, 0, 8)
	for _, n := range []int{10, 100, 1000} {
		for _, d := range []int{4, 16} {
			rows = append(rows, row{
				n: n, d: d,
				summaries: synthSummaries(n, 5, d, uint64(31*n+d)),
				q:         randomQuery("bench", d, rng.New(3)),
				// Box once: per-call interface boxing of the selector
				// struct would show up as a spurious alloc/op.
				sel: selection.Selector(selection.QueryDriven{Epsilon: 0.1, TopL: 5}),
			})
		}
	}
	for _, d := range []int{4, 16} {
		n := 10000
		rows = append(rows, row{
			n: n, d: d,
			summaries: localizedSummaries(n, 5, d, uint64(31*n+d)),
			q:         hotspotQuery(d),
			sel:       selection.Selector(selection.QueryDriven{Epsilon: 0.6, TopL: 5}),
		})
	}

	for _, r := range rows {
		b.Run(fmt.Sprintf("N=%d/d=%d", r.n, r.d), func(b *testing.B) {
			reg := staticRegistry(b, r.summaries)
			snap, err := reg.Snapshot(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			planner := NewPlanner(reg)

			// Warm the pool so the measured loop sees steady state.
			pl, err := planner.PlanOn(snap, r.q, r.sel, nil)
			if err != nil {
				b.Fatal(err)
			}
			pl.Release()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := planner.PlanOn(snap, r.q, r.sel, nil)
				if err != nil {
					b.Fatal(err)
				}
				pl.Release()
			}
		})
	}
}

// BenchmarkPlanKey isolates the selection fingerprint EXPLAIN shows.
// The first call per plan renders and
// memoizes (one string copy, since keys outlive Release); steady-state
// calls — what this measures — must be allocation-free.
func BenchmarkPlanKey(b *testing.B) {
	summaries := synthSummaries(100, 5, 4, 77)
	reg := staticRegistry(b, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	planner := NewPlanner(reg)
	q := randomQuery("key", 4, rng.New(9))
	var sel selection.Selector = selection.QueryDriven{Epsilon: 0.1, TopL: 5}
	pl, err := planner.PlanOn(snap, q, sel, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer pl.Release()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Key() == "" {
			b.Fatal("empty key")
		}
	}
}
