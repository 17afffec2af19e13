package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalOverlapQueryInside(t *testing.T) {
	// Fig. 3a: query [2,4] inside cluster [0,10] -> 2/10.
	h, c := IntervalOverlap(2, 4, 0, 10)
	if c != CaseQueryInside {
		t.Fatalf("case = %v", c)
	}
	if math.Abs(h-0.2) > 1e-12 {
		t.Fatalf("h = %v, want 0.2", h)
	}
}

func TestIntervalOverlapMinInside(t *testing.T) {
	// Fig. 3b: query [5,15], cluster [0,10]: only qmin inside.
	// h = (kmax-qmin)/(qmax-kmin) = (10-5)/(15-0) = 1/3.
	h, c := IntervalOverlap(5, 15, 0, 10)
	if c != CaseMinInside {
		t.Fatalf("case = %v", c)
	}
	if math.Abs(h-1.0/3.0) > 1e-12 {
		t.Fatalf("h = %v, want 1/3", h)
	}
}

func TestIntervalOverlapMaxInside(t *testing.T) {
	// Fig. 3c: query [-5,5], cluster [0,10]: only qmax inside.
	// h = (qmax-kmin)/(kmax-qmin) = (5-0)/(10-(-5)) = 1/3.
	h, c := IntervalOverlap(-5, 5, 0, 10)
	if c != CaseMaxInside {
		t.Fatalf("case = %v", c)
	}
	if math.Abs(h-1.0/3.0) > 1e-12 {
		t.Fatalf("h = %v, want 1/3", h)
	}
}

func TestIntervalOverlapZeroCases(t *testing.T) {
	// Fig. 4a: query entirely above cluster.
	if h, c := IntervalOverlap(11, 20, 0, 10); h != 0 || c != CaseZeroRight {
		t.Fatalf("above: h=%v case=%v", h, c)
	}
	// Fig. 4b: query entirely below cluster.
	if h, c := IntervalOverlap(-20, -11, 0, 10); h != 0 || c != CaseZeroLeft {
		t.Fatalf("below: h=%v case=%v", h, c)
	}
}

func TestIntervalOverlapClusterInside(t *testing.T) {
	h, c := IntervalOverlap(-10, 20, 0, 10)
	if c != CaseClusterInside {
		t.Fatalf("case = %v", c)
	}
	if h != 1 {
		t.Fatalf("h = %v, want 1", h)
	}
}

func TestIntervalOverlapIdentical(t *testing.T) {
	h, _ := IntervalOverlap(0, 10, 0, 10)
	if h != 1 {
		t.Fatalf("identical intervals h = %v, want 1", h)
	}
}

func TestIntervalOverlapTouching(t *testing.T) {
	// Query just touches the cluster's upper bound at a point.
	h, _ := IntervalOverlap(10, 20, 0, 10)
	if h < 0 || h > 1 {
		t.Fatalf("touching overlap out of range: %v", h)
	}
	// Disjoint by epsilon -> exactly zero.
	h2, _ := IntervalOverlap(10.0001, 20, 0, 10)
	if h2 != 0 {
		t.Fatalf("disjoint overlap = %v", h2)
	}
}

func TestIntervalOverlapDegenerateCluster(t *testing.T) {
	// Point cluster inside query: fully requested.
	h, c := IntervalOverlap(0, 10, 5, 5)
	if h != 1 || c != CaseClusterInside {
		t.Fatalf("point cluster: h=%v case=%v", h, c)
	}
	// Point cluster outside query.
	h, _ = IntervalOverlap(0, 10, 11, 11)
	if h != 0 {
		t.Fatalf("outside point cluster h = %v", h)
	}
}

func TestIntervalOverlapDegenerateQuery(t *testing.T) {
	// Point query inside cluster: ratio 0/10 = 0 area share, but it is
	// a legal query-inside case.
	h, c := IntervalOverlap(5, 5, 0, 10)
	if c != CaseQueryInside {
		t.Fatalf("case = %v", c)
	}
	if h != 0 {
		t.Fatalf("point query h = %v, want 0", h)
	}
	// Point query on point cluster: identical degenerate -> 1.
	h, _ = IntervalOverlap(5, 5, 5, 5)
	if h != 1 {
		t.Fatalf("point-on-point h = %v, want 1", h)
	}
}

// Property: overlap is always within [0, 1] regardless of interval
// configuration.
func TestIntervalOverlapBounded(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, x := range []float64{a, b, c, d} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		qmin, qmax := math.Min(a, b), math.Max(a, b)
		kmin, kmax := math.Min(c, d), math.Max(c, d)
		h, _ := IntervalOverlap(qmin, qmax, kmin, kmax)
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: zero overlap iff the intervals are disjoint... one way:
// disjoint intervals always score zero.
func TestDisjointAlwaysZero(t *testing.T) {
	f := func(a, w1, gap, w2 float64) bool {
		a = math.Mod(math.Abs(a), 1000)
		w1 = math.Mod(math.Abs(w1), 100) + 0.001
		gap = math.Mod(math.Abs(gap), 100) + 0.001
		w2 = math.Mod(math.Abs(w2), 100) + 0.001
		kmin, kmax := a, a+w1
		qmin, qmax := kmax+gap, kmax+gap+w2
		h, _ := IntervalOverlap(qmin, qmax, kmin, kmax)
		h2, _ := IntervalOverlap(kmin-gap-w2, kmin-gap, kmin, kmax)
		return h == 0 && h2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapRateEquation2(t *testing.T) {
	// 2-D: dim 0 query-inside with h=0.5, dim 1 zero overlap.
	// Eq. 2: mean = 0.25.
	q := MustRect([]float64{0, 100}, []float64{5, 110})
	k := MustRect([]float64{0, 0}, []float64{10, 10})
	got := OverlapRate(q, k)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("OverlapRate = %v, want 0.25", got)
	}
}

func TestOverlapRateIdenticalRects(t *testing.T) {
	r := MustRect([]float64{1, 2, 3}, []float64{4, 5, 6})
	if got := OverlapRate(r, r); got != 1 {
		t.Fatalf("self overlap = %v", got)
	}
}

func TestOverlapRateDisjoint(t *testing.T) {
	q := MustRect([]float64{100, 100}, []float64{110, 110})
	k := MustRect([]float64{0, 0}, []float64{10, 10})
	if got := OverlapRate(q, k); got != 0 {
		t.Fatalf("disjoint overlap = %v", got)
	}
}

func TestOverlapRateDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OverlapRate(MustRect([]float64{0}, []float64{1}), MustRect([]float64{0, 0}, []float64{1, 1}))
}

// Property: OverlapRate stays within [0, 1] for random rectangles.
func TestOverlapRateBounded(t *testing.T) {
	f := func(raw [8]float64) bool {
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q := MustRect(
			[]float64{math.Min(raw[0], raw[1]), math.Min(raw[2], raw[3])},
			[]float64{math.Max(raw[0], raw[1]), math.Max(raw[2], raw[3])},
		)
		k := MustRect(
			[]float64{math.Min(raw[4], raw[5]), math.Min(raw[6], raw[7])},
			[]float64{math.Max(raw[4], raw[5]), math.Max(raw[6], raw[7])},
		)
		h := OverlapRate(q, k)
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCoveredFraction(t *testing.T) {
	k := MustRect([]float64{0, 0}, []float64{10, 10})
	// Query covering the left half of the cluster.
	q := MustRect([]float64{-5, 0}, []float64{5, 10})
	if got := CoveredFraction(q, k); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CoveredFraction = %v, want 0.5", got)
	}
	// Disjoint.
	if got := CoveredFraction(MustRect([]float64{50, 50}, []float64{60, 60}), k); got != 0 {
		t.Fatalf("disjoint fraction = %v", got)
	}
	// Query containing the whole cluster.
	if got := CoveredFraction(MustRect([]float64{-1, -1}, []float64{11, 11}), k); got != 1 {
		t.Fatalf("containing fraction = %v", got)
	}
	// Degenerate cluster intersecting the query.
	point := MustRect([]float64{5, 5}, []float64{5, 5})
	if got := CoveredFraction(q, point); got != 1 {
		t.Fatalf("degenerate cluster fraction = %v", got)
	}
}

func TestOverlapCaseString(t *testing.T) {
	for c := CaseQueryInside; c <= CaseClusterInside; c++ {
		if c.String() == "" {
			t.Fatalf("empty string for case %d", int(c))
		}
	}
	if OverlapCase(99).String() != "OverlapCase(99)" {
		t.Fatal("unknown case formatting")
	}
}
