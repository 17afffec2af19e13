// Package geometry implements d-dimensional hyper-rectangles and the
// paper's five-case per-dimension query/cluster overlap rate (§III-C,
// Fig. 3 and Fig. 4, Eq. 2). Both analytics queries and cluster
// boundaries are represented as Rect values; the selection mechanism
// is built entirely on the OverlapRate defined here.
package geometry

import (
	"errors"
	"fmt"
	"math"
)

// Rect is an axis-aligned hyper-rectangle: Min[i] <= Max[i] per
// dimension i. The paper writes it as the vector
// [x1min, x1max, ..., xdmin, xdmax].
type Rect struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// ErrInvalidRect reports a malformed rectangle.
var ErrInvalidRect = errors.New("geometry: invalid rectangle")

// checkBounds reports whether min/max are the corners of a valid
// rectangle: equal length, no NaN, min[i] <= max[i].
func checkBounds(min, max []float64) error {
	if len(min) != len(max) {
		return fmt.Errorf("%w: min has %d dims, max has %d", ErrInvalidRect, len(min), len(max))
	}
	for i := range min {
		if math.IsNaN(min[i]) || math.IsNaN(max[i]) {
			return fmt.Errorf("%w: NaN bound in dimension %d", ErrInvalidRect, i)
		}
		if min[i] > max[i] {
			return fmt.Errorf("%w: min %g > max %g in dimension %d", ErrInvalidRect, min[i], max[i], i)
		}
	}
	return nil
}

// NewRect builds a rectangle from min/max corner vectors, copying both.
func NewRect(min, max []float64) (Rect, error) {
	if err := checkBounds(min, max); err != nil {
		return Rect{}, err
	}
	r := Rect{Min: make([]float64, len(min)), Max: make([]float64, len(max))}
	copy(r.Min, min)
	copy(r.Max, max)
	return r, nil
}

// MustRect is NewRect that panics on error; for literals in tests and
// examples.
func MustRect(min, max []float64) Rect {
	r, err := NewRect(min, max)
	if err != nil {
		panic(err)
	}
	return r
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Validate checks the rectangle invariants without allocating.
func (r Rect) Validate() error { return checkBounds(r.Min, r.Max) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: append([]float64(nil), r.Min...), Max: append([]float64(nil), r.Max...)}
}

// Width returns the extent of dimension d.
func (r Rect) Width(d int) float64 { return r.Max[d] - r.Min[d] }

// Volume returns the product of all widths. Degenerate dimensions
// contribute zero, so the volume of a point is zero.
func (r Rect) Volume() float64 {
	v := 1.0
	for d := range r.Min {
		v *= r.Width(d)
	}
	return v
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() []float64 {
	c := make([]float64, r.Dims())
	for d := range c {
		c[d] = (r.Min[d] + r.Max[d]) / 2
	}
	return c
}

// Contains reports whether point p lies inside r (inclusive bounds).
func (r Rect) Contains(p []float64) bool {
	if len(p) != r.Dims() {
		return false
	}
	for d, x := range p {
		if x < r.Min[d] || x > r.Max[d] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether other lies entirely inside r.
func (r Rect) ContainsRect(other Rect) bool {
	if other.Dims() != r.Dims() {
		return false
	}
	for d := range r.Min {
		if other.Min[d] < r.Min[d] || other.Max[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and other share any point.
func (r Rect) Intersects(other Rect) bool {
	if other.Dims() != r.Dims() {
		return false
	}
	for d := range r.Min {
		if other.Max[d] < r.Min[d] || other.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and other.
func (r Rect) Union(other Rect) Rect {
	out := r.Clone()
	out.expandToRect(other)
	return out
}

// expandToRect grows r in place so that it covers other.
func (r *Rect) expandToRect(other Rect) {
	if other.Dims() != r.Dims() {
		panic(ErrInvalidRect)
	}
	for d := range r.Min {
		r.Min[d] = math.Min(r.Min[d], other.Min[d])
		r.Max[d] = math.Max(r.Max[d], other.Max[d])
	}
}

// ExpandToInclude grows r in place so that it contains point p. The
// zero Rect becomes the degenerate rectangle at p, so growing one from
// the zero value over a set of points yields their tight bounding box.
func (r *Rect) ExpandToInclude(p []float64) {
	if r.Min == nil {
		r.Min, r.Max = append([]float64(nil), p...), append([]float64(nil), p...)
		return
	}
	if len(p) != r.Dims() {
		panic(ErrInvalidRect)
	}
	for d, x := range p {
		if x < r.Min[d] {
			r.Min[d] = x
		}
		if x > r.Max[d] {
			r.Max[d] = x
		}
	}
}

// String renders the rectangle as [min,max] pairs per dimension.
func (r Rect) String() string {
	s := "Rect{"
	for d := range r.Min {
		if d > 0 {
			s += ", "
		}
		s += fmt.Sprintf("[%.4g,%.4g]", r.Min[d], r.Max[d])
	}
	return s + "}"
}
