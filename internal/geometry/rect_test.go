package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

// Intersection, the reference that IoU and intersectionVolume are held
// bit-equal to, returns the overlapping region of r and other and
// whether it is non-empty.
func (r Rect) Intersection(other Rect) (Rect, bool) {
	if !r.Intersects(other) {
		return Rect{}, false
	}
	out := Rect{Min: make([]float64, r.Dims()), Max: make([]float64, r.Dims())}
	for d := range r.Min {
		out.Min[d] = math.Max(r.Min[d], other.Min[d])
		out.Max[d] = math.Min(r.Max[d], other.Max[d])
	}
	return out, true
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect([]float64{0, 0}, []float64{1, 1}); err != nil {
		t.Fatalf("valid rect rejected: %v", err)
	}
	if _, err := NewRect([]float64{0}, []float64{1, 1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := NewRect([]float64{2}, []float64{1}); err == nil {
		t.Fatal("min > max accepted")
	}
	if _, err := NewRect([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Fatal("NaN bound accepted")
	}
}

func TestNewRectCopies(t *testing.T) {
	min := []float64{0, 0}
	r := MustRect(min, []float64{1, 1})
	min[0] = 99
	if r.Min[0] != 0 {
		t.Fatal("NewRect aliases input slice")
	}
}

func TestMustRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustRect([]float64{1}, []float64{0})
}

func TestWidthVolumeCenter(t *testing.T) {
	r := MustRect([]float64{0, 2}, []float64{4, 8})
	if r.Width(0) != 4 || r.Width(1) != 6 {
		t.Fatalf("widths %v %v", r.Width(0), r.Width(1))
	}
	if r.Volume() != 24 {
		t.Fatalf("volume %v", r.Volume())
	}
	c := r.Center()
	if c[0] != 2 || c[1] != 5 {
		t.Fatalf("center %v", c)
	}
}

func TestDegeneratePointRect(t *testing.T) {
	p := MustRect([]float64{3, 3}, []float64{3, 3})
	if p.Volume() != 0 {
		t.Fatalf("point volume %v", p.Volume())
	}
	if !p.Contains([]float64{3, 3}) {
		t.Fatal("point rect should contain its point")
	}
}

func TestContains(t *testing.T) {
	r := MustRect([]float64{0, 0}, []float64{10, 10})
	cases := []struct {
		p  []float64
		in bool
	}{
		{[]float64{5, 5}, true},
		{[]float64{0, 0}, true},   // inclusive lower
		{[]float64{10, 10}, true}, // inclusive upper
		{[]float64{-0.1, 5}, false},
		{[]float64{5, 10.1}, false},
		{[]float64{5}, false}, // wrong dims
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
}

func TestContainsRectIntersects(t *testing.T) {
	outer := MustRect([]float64{0, 0}, []float64{10, 10})
	inner := MustRect([]float64{2, 2}, []float64{5, 5})
	partial := MustRect([]float64{8, 8}, []float64{12, 12})
	outside := MustRect([]float64{20, 20}, []float64{30, 30})

	if !outer.ContainsRect(inner) {
		t.Fatal("outer should contain inner")
	}
	if outer.ContainsRect(partial) {
		t.Fatal("outer should not contain partial")
	}
	if !outer.Intersects(partial) {
		t.Fatal("outer should intersect partial")
	}
	if outer.Intersects(outside) {
		t.Fatal("outer should not intersect outside")
	}
	// Touching edges intersect (closed rectangles).
	touch := MustRect([]float64{10, 0}, []float64{20, 10})
	if !outer.Intersects(touch) {
		t.Fatal("touching rectangles should intersect")
	}
}

func TestIntersection(t *testing.T) {
	a := MustRect([]float64{0, 0}, []float64{10, 10})
	b := MustRect([]float64{5, -5}, []float64{15, 5})
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := MustRect([]float64{5, 0}, []float64{10, 5})
	if !rectEqual(got, want) {
		t.Fatalf("intersection %v, want %v", got, want)
	}
	if _, ok := a.Intersection(MustRect([]float64{20, 20}, []float64{21, 21})); ok {
		t.Fatal("disjoint rects should not intersect")
	}
}

func TestUnion(t *testing.T) {
	a := MustRect([]float64{0, 5}, []float64{2, 6})
	b := MustRect([]float64{-1, 7}, []float64{1, 9})
	got := a.Union(b)
	want := MustRect([]float64{-1, 5}, []float64{2, 9})
	if !rectEqual(got, want) {
		t.Fatalf("union %v, want %v", got, want)
	}
}

func TestExpandToInclude(t *testing.T) {
	r := MustRect([]float64{0, 0}, []float64{1, 1})
	r.ExpandToInclude([]float64{-2, 3})
	if r.Min[0] != -2 || r.Max[1] != 3 || r.Max[0] != 1 || r.Min[1] != 0 {
		t.Fatalf("expanded rect %v", r)
	}
}

// Grown from the zero Rect, ExpandToInclude yields the points' tight
// bounding box; over no points the Rect stays empty.
func TestExpandToIncludeFromZeroRect(t *testing.T) {
	var b Rect
	for _, p := range [][]float64{{1, 5}, {-2, 3}, {4, 4}} {
		b.ExpandToInclude(p)
	}
	if want := MustRect([]float64{-2, 3}, []float64{4, 5}); !rectEqual(b, want) {
		t.Fatalf("bounding %v, want %v", b, want)
	}
	var empty Rect
	if empty.Dims() != 0 {
		t.Fatalf("zero Rect has %d dims", empty.Dims())
	}
}

func TestExpandToIncludeContainsAllPoints(t *testing.T) {
	f := func(raw [6][2]float64) bool {
		var r Rect
		for _, p := range raw {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
				return true
			}
			r.ExpandToInclude([]float64{p[0], p[1]})
		}
		for _, p := range raw {
			if !r.Contains([]float64{p[0], p[1]}) {
				return false
			}
		}
		return r.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustRect([]float64{0}, []float64{1})
	b := a.Clone()
	b.Min[0] = -9
	if a.Min[0] != 0 {
		t.Fatal("Clone aliases storage")
	}
}

func rectEqual(a, b Rect) bool {
	if a.Dims() != b.Dims() {
		return false
	}
	for d := range a.Min {
		if a.Min[d] != b.Min[d] || a.Max[d] != b.Max[d] {
			return false
		}
	}
	return true
}
