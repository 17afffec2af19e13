package query

import (
	"testing"

	"qens/internal/geometry"
	"qens/internal/rng"
)

func space2D() geometry.Rect {
	return geometry.MustRect([]float64{0, -50}, []float64{100, 250})
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", space2D()); err == nil {
		t.Fatal("accepted empty id")
	}
	if _, err := New("q", geometry.Rect{Min: []float64{1}, Max: []float64{0}}); err == nil {
		t.Fatal("accepted invalid rect")
	}
	q, err := New("q1", space2D())
	if err != nil {
		t.Fatal(err)
	}
	if q.Dims() != 2 {
		t.Fatalf("dims %d", q.Dims())
	}
}

func TestWorkloadBasics(t *testing.T) {
	qs, err := Workload(WorkloadConfig{Space: space2D(), Count: 200}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 200 {
		t.Fatalf("%d queries", len(qs))
	}
	ids := map[string]bool{}
	space := space2D()
	for _, q := range qs {
		if ids[q.ID] {
			t.Fatalf("duplicate id %s", q.ID)
		}
		ids[q.ID] = true
		if !space.ContainsRect(q.Bounds) {
			t.Fatalf("query %s escapes the space: %v", q.ID, q.Bounds)
		}
		for d := 0; d < q.Dims(); d++ {
			if q.Bounds.Width(d) <= 0 {
				t.Fatalf("query %s has empty width in dim %d", q.ID, d)
			}
		}
	}
}

func TestWorkloadWidthBounds(t *testing.T) {
	cfg := WorkloadConfig{Space: space2D(), Count: 100, MinWidthFraction: 0.2, MaxWidthFraction: 0.3}
	qs, err := Workload(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	space := space2D()
	for _, q := range qs {
		for d := 0; d < 2; d++ {
			frac := q.Bounds.Width(d) / space.Width(d)
			// Clamping can shrink a query at the boundary but never
			// below 0 nor above the max fraction.
			if frac > 0.3+1e-9 {
				t.Fatalf("width fraction %v above max", frac)
			}
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	cfg := WorkloadConfig{Space: space2D(), Count: 50, DriftPeriod: 10}
	a, _ := Workload(cfg, rng.New(3))
	b, _ := Workload(cfg, rng.New(3))
	for i := range a {
		if a[i].Bounds.Min[0] != b[i].Bounds.Min[0] {
			t.Fatal("workload not deterministic")
		}
	}
	c, _ := Workload(cfg, rng.New(4))
	if c[0].Bounds.Min[0] == a[0].Bounds.Min[0] && c[1].Bounds.Min[0] == a[1].Bounds.Min[0] {
		t.Fatal("different seeds gave identical workloads")
	}
}

func TestWorkloadDrift(t *testing.T) {
	// With drift, queries within a period should be near one another,
	// across periods they should move; just verify generation succeeds
	// and stays in bounds.
	cfg := WorkloadConfig{Space: space2D(), Count: 60, DriftPeriod: 20, FocusSpread: 0.05}
	qs, err := Workload(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	space := space2D()
	for _, q := range qs {
		if !space.ContainsRect(q.Bounds) {
			t.Fatalf("drifted query escapes space")
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := []WorkloadConfig{
		{Space: space2D(), Count: 0},
		{Space: space2D(), Count: 10, MinWidthFraction: 0.9, MaxWidthFraction: 0.5},
		{Space: space2D(), Count: 10, MaxWidthFraction: 1.5},
		{Space: space2D(), Count: 10, DriftPeriod: -1},
		{Space: geometry.Rect{}, Count: 10},
	}
	for i, cfg := range bad {
		if _, err := Workload(cfg, rng.New(1)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGlobalSpace(t *testing.T) {
	a := geometry.MustRect([]float64{0, 0}, []float64{10, 10})
	b := geometry.MustRect([]float64{-5, 5}, []float64{5, 20})
	space, err := GlobalSpace([]geometry.Rect{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := geometry.MustRect([]float64{-5, 0}, []float64{10, 20})
	if space.Min[0] != want.Min[0] || space.Max[1] != want.Max[1] {
		t.Fatalf("GlobalSpace = %v", space)
	}
	if _, err := GlobalSpace(nil); err == nil {
		t.Fatal("accepted empty bounds")
	}
	if _, err := GlobalSpace([]geometry.Rect{a, geometry.MustRect([]float64{0}, []float64{1})}); err == nil {
		t.Fatal("accepted mismatched dims")
	}
}
