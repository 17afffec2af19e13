package selection

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"qens/internal/cluster"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
)

// mkSummary builds a 1-D node summary with the given cluster intervals.
func mkSummary(id string, intervals [][2]float64, sizes []int) cluster.NodeSummary {
	s := cluster.NodeSummary{NodeID: id}
	total := 0
	for i, iv := range intervals {
		size := 10
		if sizes != nil {
			size = sizes[i]
		}
		s.Clusters = append(s.Clusters, cluster.Summary{
			Bounds: geometry.MustRect([]float64{iv[0]}, []float64{iv[1]}),
			Size:   size,
		})
		total += size
	}
	s.TotalSamples = total
	return s
}

func mkQuery(t *testing.T, lo, hi float64) query.Query {
	t.Helper()
	q, err := query.New("q", geometry.MustRect([]float64{lo}, []float64{hi}))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRankNodesEquations(t *testing.T) {
	// Node with K=2 clusters: [0,10] fully containing the query
	// [2,4] (h = 0.2), and [100,110] disjoint (h = 0).
	// With ε=0.1: K'=1, p = 0.2, r = 0.2 * 1/2 = 0.1.
	sums := []cluster.NodeSummary{mkSummary("n1", [][2]float64{{0, 10}, {100, 110}}, []int{30, 50})}
	q := mkQuery(t, 2, 4)
	ranks, err := RankNodes(q, sums, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := ranks[0]
	if len(r.Supporting) != 1 || r.Supporting[0] != 0 {
		t.Fatalf("supporting = %v", r.Supporting)
	}
	if math.Abs(r.Potential-0.2) > 1e-12 {
		t.Fatalf("potential = %v, want 0.2 (Eq. 3)", r.Potential)
	}
	if math.Abs(r.Rank-0.1) > 1e-12 {
		t.Fatalf("rank = %v, want 0.1 (Eq. 4)", r.Rank)
	}
	if r.SupportingSamples != 30 || r.TotalSamples != 80 {
		t.Fatalf("samples %d/%d", r.SupportingSamples, r.TotalSamples)
	}
}

func TestRankNodesEpsilonFilters(t *testing.T) {
	// Cluster [0,100] with query [2,4]: h = 0.02 < ε=0.1 -> no support.
	sums := []cluster.NodeSummary{mkSummary("n1", [][2]float64{{0, 100}}, nil)}
	ranks, err := RankNodes(mkQuery(t, 2, 4), sums, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks[0].Supporting) != 0 || ranks[0].Rank != 0 {
		t.Fatalf("tiny overlap should not support: %+v", ranks[0])
	}
	// With a lower ε it does support.
	ranks, _ = RankNodes(mkQuery(t, 2, 4), sums, 0.01)
	if len(ranks[0].Supporting) != 1 {
		t.Fatal("expected support at ε=0.01")
	}
}

func TestRankNodesValidation(t *testing.T) {
	sums := []cluster.NodeSummary{mkSummary("n1", [][2]float64{{0, 10}}, nil)}
	if _, err := RankNodes(mkQuery(t, 0, 1), sums, 0); err == nil {
		t.Fatal("accepted ε=0")
	}
	if _, err := RankNodes(mkQuery(t, 0, 1), []cluster.NodeSummary{{}}, 0.1); err == nil {
		t.Fatal("accepted invalid summary")
	}
	// Dimension mismatch.
	q2, _ := query.New("q", geometry.MustRect([]float64{0, 0}, []float64{1, 1}))
	if _, err := RankNodes(q2, sums, 0.1); err == nil {
		t.Fatal("accepted dimension mismatch")
	}
}

func TestRankOrderingMatchesOverlap(t *testing.T) {
	// Three nodes: full overlap, partial overlap, none.
	sums := []cluster.NodeSummary{
		mkSummary("full", [][2]float64{{0, 10}, {10, 20}}, nil),
		mkSummary("partial", [][2]float64{{8, 30}, {200, 300}}, nil),
		mkSummary("none", [][2]float64{{500, 600}, {700, 800}}, nil),
	}
	q := mkQuery(t, 2, 12)
	ranks, err := RankNodes(q, sums, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	SortByRank(ranks)
	if ranks[0].NodeID != "full" || ranks[2].NodeID != "none" {
		t.Fatalf("order = %s,%s,%s", ranks[0].NodeID, ranks[1].NodeID, ranks[2].NodeID)
	}
	if ranks[2].Rank != 0 {
		t.Fatalf("disjoint node rank = %v", ranks[2].Rank)
	}
}

func TestSortByRankDeterministicTies(t *testing.T) {
	ranks := []NodeRank{{NodeID: "b", Rank: 1}, {NodeID: "a", Rank: 1}, {NodeID: "c", Rank: 2}}
	SortByRank(ranks)
	if ranks[0].NodeID != "c" || ranks[1].NodeID != "a" || ranks[2].NodeID != "b" {
		t.Fatalf("tie-break order: %v %v %v", ranks[0].NodeID, ranks[1].NodeID, ranks[2].NodeID)
	}
}

func TestTopL(t *testing.T) {
	ranks := []NodeRank{
		{NodeID: "a", Rank: 0.5},
		{NodeID: "b", Rank: 0.9},
		{NodeID: "c", Rank: 0},
		{NodeID: "d", Rank: 0.1},
	}
	top := TopL(ranks, 2)
	if len(top) != 2 || top[0].NodeID != "b" || top[1].NodeID != "a" {
		t.Fatalf("TopL = %+v", top)
	}
	// Zero-rank nodes are never selected even if ℓ is large.
	top = TopL(ranks, 10)
	if len(top) != 3 {
		t.Fatalf("TopL(10) returned %d nodes, want 3 positive-rank", len(top))
	}
	if TopL(ranks, 0) != nil {
		t.Fatal("TopL(0) should be nil")
	}
}

func TestAboveThreshold(t *testing.T) {
	ranks := []NodeRank{
		{NodeID: "a", Rank: 0.5},
		{NodeID: "b", Rank: 0.9},
		{NodeID: "c", Rank: 0.05},
	}
	got := AboveThreshold(ranks, 0.4)
	if len(got) != 2 || got[0].NodeID != "b" {
		t.Fatalf("AboveThreshold = %+v", got)
	}
	// Non-positive ψ keeps every positive-rank node.
	got = AboveThreshold(ranks, 0)
	if len(got) != 3 {
		t.Fatalf("ψ=0 kept %d", len(got))
	}
}

// Property: ranking invariants hold for random summaries and queries —
// rank <= potential (since K'/K <= 1), supporting ⊆ clusters, and
// potential equals the sum of supporting overlaps.
func TestRankInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := int(seed%8) + 2
		sums := make([]cluster.NodeSummary, n)
		for i := range sums {
			s := cluster.NodeSummary{NodeID: fmt.Sprintf("n%02d", i)}
			k := int(seed%4) + 2
			for c := 0; c < k; c++ {
				lo := src.Uniform(0, 80)
				s.Clusters = append(s.Clusters, cluster.Summary{
					Bounds: geometry.MustRect([]float64{lo}, []float64{lo + src.Uniform(0.5, 20)}),
					Size:   int(src.Uniform(1, 100)),
				})
				s.TotalSamples += s.Clusters[c].Size
			}
			sums[i] = s
		}
		a := src.Uniform(0, 80)
		q, err := query.New("q", geometry.MustRect([]float64{a}, []float64{a + src.Uniform(1, 30)}))
		if err != nil {
			return false
		}
		eps := src.Uniform(0.05, 0.9)
		ranks, err := RankNodes(q, sums, eps)
		if err != nil {
			return false
		}
		for i, r := range ranks {
			if r.Rank > r.Potential+1e-12 || r.Rank < 0 {
				return false
			}
			if len(r.Supporting) > len(r.Overlaps) {
				return false
			}
			sum := 0.0
			for _, k := range r.Supporting {
				if r.Overlaps[k] < eps {
					return false
				}
				sum += r.Overlaps[k]
			}
			if sum != r.Potential {
				return false
			}
			if r.TotalSamples != sums[i].TotalSamples {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExplain(t *testing.T) {
	out, err := Explain(mkQuery(t, 2, 12), fourNodes(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"q:", "n0", "n2", "cluster 0", "rank="} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// Supporting clusters are starred.
	if !strings.Contains(out, "* cluster") {
		t.Fatal("no supporting cluster starred")
	}
	if _, err := Explain(mkQuery(t, 0, 1), fourNodes(), 0); err == nil {
		t.Fatal("accepted ε=0")
	}
}
