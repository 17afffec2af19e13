package geometry

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"qens/internal/rng"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func queryCoverage(q Rect, rects []Rect) float64 {
	mins, maxs := FlattenRects(nil, nil, rects)
	return QueryCoverageFlat(q.Min, q.Max, mins, maxs)
}

func TestQueryCoverageFullCover(t *testing.T) {
	q := MustRect([]float64{0, 0}, []float64{10, 10})
	rects := []Rect{MustRect([]float64{-5, -5}, []float64{15, 15})}
	if got := queryCoverage(q, rects); !approxEq(got, 1) {
		t.Fatalf("enclosing rect coverage = %v, want 1", got)
	}
}

func TestQueryCoverageDisjoint(t *testing.T) {
	q := MustRect([]float64{0, 0}, []float64{10, 10})
	rects := []Rect{MustRect([]float64{20, 20}, []float64{30, 30})}
	if got := queryCoverage(q, rects); !approxEq(got, 0) {
		t.Fatalf("disjoint rect coverage = %v, want 0", got)
	}
}

func TestQueryCoveragePartial(t *testing.T) {
	// Covers [0,5] of [0,10] on x and all of y: mean(0.5, 1) = 0.75.
	q := MustRect([]float64{0, 0}, []float64{10, 10})
	rects := []Rect{MustRect([]float64{-1, -1}, []float64{5, 11})}
	if got := queryCoverage(q, rects); !approxEq(got, 0.75) {
		t.Fatalf("partial coverage = %v, want 0.75", got)
	}
}

func TestQueryCoverageUnionNoDoubleCount(t *testing.T) {
	// Two overlapping rects covering [0,6] and [4,10] on x: union is
	// the full interval even though lengths sum to 1.2x.
	q := MustRect([]float64{0}, []float64{10})
	rects := []Rect{
		MustRect([]float64{0}, []float64{6}),
		MustRect([]float64{4}, []float64{10}),
	}
	if got := queryCoverage(q, rects); !approxEq(got, 1) {
		t.Fatalf("overlapping union coverage = %v, want 1", got)
	}
	// Disjoint pieces [0,2] and [8,10]: 0.4 of the interval.
	rects = []Rect{
		MustRect([]float64{0}, []float64{2}),
		MustRect([]float64{8}, []float64{10}),
	}
	if got := queryCoverage(q, rects); !approxEq(got, 0.4) {
		t.Fatalf("gapped union coverage = %v, want 0.4", got)
	}
}

func TestQueryCoverageUnsortedInput(t *testing.T) {
	// Spans arrive in arbitrary order; the merge must sort first.
	q := MustRect([]float64{0}, []float64{10})
	rects := []Rect{
		MustRect([]float64{7}, []float64{9}),
		MustRect([]float64{0}, []float64{3}),
		MustRect([]float64{2}, []float64{5}),
	}
	if got := queryCoverage(q, rects); !approxEq(got, 0.7) {
		t.Fatalf("unsorted coverage = %v, want 0.7", got)
	}
}

func TestQueryCoverageDegenerateDim(t *testing.T) {
	// Zero-width query interval on x counts as covered when a rect
	// interval contains the point.
	q := MustRect([]float64{5, 0}, []float64{5, 10})
	hit := []Rect{MustRect([]float64{0, 0}, []float64{10, 10})}
	if got := queryCoverage(q, hit); !approxEq(got, 1) {
		t.Fatalf("degenerate covered = %v, want 1", got)
	}
	miss := []Rect{MustRect([]float64{6, 0}, []float64{10, 10})}
	if got := queryCoverage(q, miss); !approxEq(got, 0.5) {
		t.Fatalf("degenerate uncovered = %v, want 0.5", got)
	}
}

func TestQueryCoverageEmptyRects(t *testing.T) {
	q := MustRect([]float64{0}, []float64{1})
	if got := queryCoverage(q, nil); got != 0 {
		t.Fatalf("no rects coverage = %v, want 0", got)
	}
}

func TestQueryCoverageFlatPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ragged flat pack")
		}
	}()
	QueryCoverageFlat([]float64{0, 0}, []float64{1, 1}, []float64{0, 0, 0}, []float64{1, 1, 1})
}

// gridRects draws n rectangles rect-major into flat mins/maxs. With
// grid set the corners sit on a small integer lattice, so touching,
// nested, duplicated and zero-width intervals are the common case
// rather than a measure-zero one.
func gridRects(src *rng.Source, n, dims int, grid bool) (mins, maxs []float64) {
	for i := 0; i < n*dims; i++ {
		var lo, w float64
		if grid {
			lo, w = float64(src.Intn(12)), float64(src.Intn(5))
		} else {
			lo, w = src.Uniform(-50, 50), src.Uniform(0, 30)
		}
		mins, maxs = append(mins, lo), append(maxs, lo+w)
	}
	return mins, maxs
}

// assertProfileMatchesFlat holds a profile's score bit-equal to the
// reference for one query.
func assertProfileMatchesFlat(t *testing.T, p *CoverageProfile, qmin, qmax, mins, maxs []float64) {
	t.Helper()
	got, want := p.Coverage(qmin, qmax), QueryCoverageFlat(qmin, qmax, mins, maxs)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("profile coverage %v (%#x) != flat %v (%#x)\nq=[%v,%v]\nmins=%v\nmaxs=%v",
			got, math.Float64bits(got), want, math.Float64bits(want), qmin, qmax, mins, maxs)
	}
}

// TestCoverageProfileMatchesFlat is the seeded property test behind the
// serving path's swap of QueryCoverageFlat for a precomputed profile:
// the two must agree bit for bit, including on touching, nested,
// zero-width and point-query configurations.
func TestCoverageProfileMatchesFlat(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 400; trial++ {
		dims, n := 1+src.Intn(4), 1+src.Intn(40) // n > 32 leaves the reference's stack scratch
		grid := trial%2 == 0
		mins, maxs := gridRects(src, n, dims, grid)
		p, err := NewCoverageProfile(dims, mins, maxs)
		if err != nil {
			t.Fatal(err)
		}
		box := MustRect(mins[:dims], maxs[:dims])
		for k := dims; k < len(mins); k += dims {
			box.expandToRect(Rect{Min: mins[k : k+dims], Max: maxs[k : k+dims]})
		}
		if got := p.Bounds(); !reflect.DeepEqual(got, box) {
			t.Fatalf("profile bounds %v, want %v", got, box)
		}
		for probe := 0; probe < 25; probe++ {
			qmin, qmax := gridRects(src, 1, dims, grid)
			switch probe % 5 {
			case 1: // point query in one dimension
				d := src.Intn(dims)
				qmax[d] = qmin[d]
			case 2: // exactly one training rectangle: every bound touches
				k := src.Intn(n) * dims
				copy(qmin, mins[k:k+dims])
				copy(qmax, maxs[k:k+dims])
			case 3: // enclosing everything
				copy(qmin, box.Min)
				copy(qmax, box.Max)
			case 4: // starts where a rectangle ends
				k := src.Intn(n) * dims
				for d := range qmin {
					qmax[d] += maxs[k+d] - qmin[d]
					qmin[d] = maxs[k+d]
				}
			}
			assertProfileMatchesFlat(t, p, qmin, qmax, mins, maxs)
		}
	}
}

func TestNewCoverageProfileRejectsMalformedPacks(t *testing.T) {
	for name, tc := range map[string]struct {
		dims       int
		mins, maxs []float64
	}{
		"ragged":       {2, []float64{0, 0, 1, 1}, []float64{1, 1}},
		"not multiple": {2, []float64{0, 0, 0}, []float64{1, 1, 1}},
		"empty":        {2, nil, nil},
		"zero dims":    {0, []float64{0}, []float64{1}},
		"inverted":     {1, []float64{0, 5}, []float64{1, 4}},
		"NaN":          {1, []float64{math.NaN()}, []float64{1}},
	} {
		if p, err := NewCoverageProfile(tc.dims, tc.mins, tc.maxs); err == nil || !errors.Is(err, ErrInvalidRect) {
			t.Errorf("%s: profile %v, err %v; want ErrInvalidRect", name, p, err)
		}
	}
}

// iouByIntersection is IoU as it was written before the in-place
// intersection volume: materialize the intersection, take its volume.
func iouByIntersection(a, b Rect) float64 {
	inter, ok := a.Intersection(b)
	if !ok {
		return 0
	}
	iv := inter.Volume()
	union := a.Volume() + b.Volume() - iv
	if union <= 0 {
		return 1
	}
	return clamp01(iv / union)
}

func TestIoUMatchesIntersectionFormula(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 4000; trial++ {
		dims := 1 + src.Intn(4)
		amin, amax := gridRects(src, 1, dims, trial%2 == 0)
		bmin, bmax := gridRects(src, 1, dims, trial%2 == 0)
		a, b := MustRect(amin, amax), MustRect(bmin, bmax)
		if got, want := IoU(a, b), iouByIntersection(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("IoU(%v, %v) = %v, intersection formula %v", a, b, got, want)
		}
	}
}

// TestLookupKernelsDoNotAllocate pins the kernels a reuse-cache lookup
// and every query.New run per request at zero heap allocations.
func TestLookupKernelsDoNotAllocate(t *testing.T) {
	src := rng.New(5)
	mins, maxs := gridRects(src, 12, 2, false)
	p, err := NewCoverageProfile(2, mins, maxs)
	if err != nil {
		t.Fatal(err)
	}
	a := MustRect([]float64{-10, -10}, []float64{20, 20})
	b := MustRect([]float64{0, -30}, []float64{40, 10})
	var sink float64
	for name, fn := range map[string]func(){
		"IoU":               func() { sink += IoU(a, b) },
		"CoveredFraction":   func() { sink += CoveredFraction(a, b) },
		"Rect.Validate":     func() { _ = a.Validate() },
		"profile.Coverage":  func() { sink += p.Coverage(a.Min, a.Max) },
		"QueryCoverageFlat": func() { sink += QueryCoverageFlat(a.Min, a.Max, mins, maxs) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	_ = sink
}
