package selection

import (
	"fmt"
	"testing"

	"qens/internal/rng"
)

func homogeneousCtx() *Context {
	return &Context{
		RNG:      rng.New(1),
		Evaluate: func(string) (float64, error) { return 10, nil },
	}
}

func heterogeneousCtx() *Context {
	losses := map[string]float64{"n0": 5, "n1": 6, "n2": 500, "n3": 7}
	return &Context{
		RNG:      rng.New(1),
		Evaluate: func(id string) (float64, error) { return losses[id], nil },
	}
}

func TestAdaptiveHomogeneousUsesRandom(t *testing.T) {
	sel := &Adaptive{Epsilon: 0.3, TopL: 2}
	parts, err := sel.SelectFrom(candidates(t, mkQuery(t, 2, 12), fourNodes()), homogeneousCtx())
	if err != nil {
		t.Fatal(err)
	}
	regime, ok := sel.Regime()
	if !ok || regime != RegimeHomogeneous {
		t.Fatalf("regime %v ok=%v", regime, ok)
	}
	// Random branch: whole-dataset training, no cluster directives.
	for _, p := range parts {
		if p.Clusters != nil {
			t.Fatal("homogeneous branch should not restrict clusters")
		}
	}
}

func TestAdaptiveHeterogeneousUsesQueryDriven(t *testing.T) {
	sel := &Adaptive{Epsilon: 0.3, TopL: 2}
	parts, err := sel.SelectFrom(candidates(t, mkQuery(t, 2, 12), fourNodes()), heterogeneousCtx())
	if err != nil {
		t.Fatal(err)
	}
	regime, ok := sel.Regime()
	if !ok || regime != RegimeHeterogeneous {
		t.Fatalf("regime %v ok=%v", regime, ok)
	}
	// Query-driven branch: supporting clusters attached, disjoint
	// node excluded.
	for _, p := range parts {
		if p.NodeID == "n2" {
			t.Fatal("query-driven branch selected the disjoint node")
		}
		if len(p.Clusters) == 0 {
			t.Fatal("query-driven branch missing cluster directives")
		}
	}
}

func TestAdaptivePreTestRunsOnce(t *testing.T) {
	calls := 0
	ctx := &Context{
		RNG: rng.New(1),
		Evaluate: func(string) (float64, error) {
			calls++
			return 10, nil
		},
	}
	sel := &Adaptive{Epsilon: 0.3, TopL: 1}
	for i := 0; i < 3; i++ {
		if _, err := sel.SelectFrom(candidates(t, mkQuery(t, 2, 12), fourNodes()), ctx); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 4 { // one evaluation per node, once
		t.Fatalf("pre-test evaluated %d times, want 4 (once per node)", calls)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	if _, err := (&Adaptive{Epsilon: 0.3}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), homogeneousCtx()); err == nil {
		t.Fatal("accepted TopL=0")
	}
	if _, err := (&Adaptive{TopL: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), homogeneousCtx()); err == nil {
		t.Fatal("accepted Epsilon=0")
	}
	if _, err := (&Adaptive{Epsilon: 0.3, TopL: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), nil); err == nil {
		t.Fatal("accepted nil context")
	}
	failing := &Context{Evaluate: func(string) (float64, error) { return 0, fmt.Errorf("down") }}
	if _, err := (&Adaptive{Epsilon: 0.3, TopL: 1}).SelectFrom(candidates(t, mkQuery(t, 0, 1), fourNodes()), failing); err == nil {
		t.Fatal("ignored pre-test failure")
	}
	// Regime before any select.
	if _, ok := (&Adaptive{}).Regime(); ok {
		t.Fatal("regime reported before pre-test")
	}
}
