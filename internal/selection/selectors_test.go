package selection

import (
	"errors"
	"fmt"
	"testing"

	"qens/internal/cluster"
	"qens/internal/query"
	"qens/internal/rng"
)

// candidates ranks the summaries with the reference constructor at a
// permissive ε, as the planner does for selectors without their own.
func candidates(t *testing.T, q query.Query, summaries []cluster.NodeSummary) *CandidateSet {
	t.Helper()
	cs, err := NewCandidateSet(q, summaries, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func fourNodes() []cluster.NodeSummary {
	return []cluster.NodeSummary{
		mkSummary("n0", [][2]float64{{0, 10}, {10, 20}}, nil),
		mkSummary("n1", [][2]float64{{5, 15}, {15, 25}}, nil),
		mkSummary("n2", [][2]float64{{100, 110}, {110, 120}}, nil),
		mkSummary("n3", [][2]float64{{-10, 0}, {0, 5}}, nil),
	}
}

func TestQueryDrivenTopL(t *testing.T) {
	sel := QueryDriven{Epsilon: 0.05, TopL: 2}
	q := mkQuery(t, 2, 12)
	parts, err := sel.SelectFrom(candidates(t, q, fourNodes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("%d participants", len(parts))
	}
	// n2 is disjoint from the query and must never be selected.
	for _, p := range parts {
		if p.NodeID == "n2" {
			t.Fatal("selected disjoint node")
		}
		if p.Rank <= 0 {
			t.Fatalf("participant %s has rank %v", p.NodeID, p.Rank)
		}
		if len(p.Clusters) == 0 {
			t.Fatalf("participant %s has no supporting clusters", p.NodeID)
		}
	}
}

func TestQueryDrivenPsi(t *testing.T) {
	sel := QueryDriven{Epsilon: 0.05, Psi: 0.01}
	parts, err := sel.SelectFrom(candidates(t, mkQuery(t, 2, 12), fourNodes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p.Rank < 0.01 {
			t.Fatalf("ψ violated: %v", p.Rank)
		}
	}
}

func TestQueryDrivenConfigErrors(t *testing.T) {
	q := mkQuery(t, 0, 1)
	if _, err := (QueryDriven{Epsilon: 0.1}).SelectFrom(candidates(t, q, fourNodes()), nil); err == nil {
		t.Fatal("accepted neither TopL nor Psi")
	}
	if _, err := (QueryDriven{Epsilon: 0.1, TopL: 2, Psi: 0.5}).SelectFrom(candidates(t, q, fourNodes()), nil); err == nil {
		t.Fatal("accepted both TopL and Psi")
	}
	if _, err := (QueryDriven{TopL: 2}).SelectFrom(candidates(t, q, fourNodes()), nil); err == nil {
		t.Fatal("accepted ε=0")
	}
}

func TestQueryDrivenNoCandidates(t *testing.T) {
	sel := QueryDriven{Epsilon: 0.1, TopL: 3}
	_, err := sel.SelectFrom(candidates(t, mkQuery(t, 5000, 6000), fourNodes()), nil)
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestRandomSelector(t *testing.T) {
	sel := Random{L: 2}
	ctx := &Context{RNG: rng.New(1)}
	parts, err := sel.SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("%d participants", len(parts))
	}
	if parts[0].NodeID == parts[1].NodeID {
		t.Fatal("duplicate selection")
	}
	// Whole-dataset training: no cluster directives.
	for _, p := range parts {
		if p.Clusters != nil {
			t.Fatal("random selection should not restrict clusters")
		}
	}
	// Oversized L clamps.
	parts, err = (Random{L: 99}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), ctx)
	if err != nil || len(parts) != 4 {
		t.Fatalf("oversized L: %v, %d", err, len(parts))
	}
}

func TestRandomSelectorErrors(t *testing.T) {
	if _, err := (Random{}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), &Context{RNG: rng.New(1)}); err == nil {
		t.Fatal("accepted L=0")
	}
	if _, err := (Random{L: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), nil); err == nil {
		t.Fatal("accepted nil context")
	}
	if _, err := (Random{L: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), nil), &Context{RNG: rng.New(1)}); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty summaries should be ErrNoCandidates")
	}
}

func TestRandomSelectorUniform(t *testing.T) {
	ctx := &Context{RNG: rng.New(7)}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		parts, err := (Random{L: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts[parts[0].NodeID]++
	}
	for id, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("node %s drawn %d/4000 times, want ~1000", id, c)
		}
	}
}

func TestAllNodesSelector(t *testing.T) {
	parts, err := (AllNodes{}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("%d participants", len(parts))
	}
	if _, err := (AllNodes{}).SelectFrom(candidates(t, mkQuery(t, 0, 1), nil), nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty summaries should error")
	}
}

func TestGameTheorySelectsWorstLoss(t *testing.T) {
	losses := map[string]float64{"n0": 1, "n1": 50, "n2": 10, "n3": 2}
	ctx := &Context{Evaluate: func(id string) (float64, error) { return losses[id], nil }}
	parts, err := (GameTheory{L: 2}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].NodeID != "n1" || parts[1].NodeID != "n2" {
		t.Fatalf("GT picked %s,%s", parts[0].NodeID, parts[1].NodeID)
	}
}

func TestGameTheoryErrors(t *testing.T) {
	ctx := &Context{Evaluate: func(string) (float64, error) { return 0, nil }}
	if _, err := (GameTheory{}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), ctx); err == nil {
		t.Fatal("accepted L=0")
	}
	if _, err := (GameTheory{L: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), nil); err == nil {
		t.Fatal("accepted nil evaluator")
	}
	failing := &Context{Evaluate: func(string) (float64, error) { return 0, fmt.Errorf("down") }}
	if _, err := (GameTheory{L: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), failing); err == nil {
		t.Fatal("ignored evaluator failure")
	}
}

func TestSelectorNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Selector{QueryDriven{}, Random{}, AllNodes{}, GameTheory{}} {
		n := s.Name()
		if n == "" || names[n] {
			t.Fatalf("bad or duplicate selector name %q", n)
		}
		names[n] = true
	}
}
