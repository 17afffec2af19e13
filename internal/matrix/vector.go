package matrix

import "math"

// Vector helpers operating on plain []float64, used by clustering and
// the geometry package where full matrices would be overkill.

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// AxpyVec computes y += alpha * x.
func AxpyVec(y []float64, alpha float64, x []float64) {
	if len(y) != len(x) {
		panic(ErrShape)
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies every element of v by alpha in place.
func ScaleVec(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
