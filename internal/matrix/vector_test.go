package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if SqDist(a, b) != 25 {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
	if Dist(a, b) != 5 {
		t.Fatalf("Dist = %v", Dist(a, b))
	}
	if Dist(a, a) != 0 {
		t.Fatal("self distance should be zero")
	}
}

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 1}
	AxpyVec(y, 3, []float64{2, -1})
	if y[0] != 7 || y[1] != -2 {
		t.Fatalf("AxpyVec = %v", y)
	}
	ScaleVec(y, 0.5)
	if y[0] != 3.5 || y[1] != -1 {
		t.Fatalf("ScaleVec = %v", y)
	}
}

func TestCloneVec(t *testing.T) {
	a := []float64{1, 2}
	b := CloneVec(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("CloneVec aliases input")
	}
}

// Property: triangle inequality for Dist.
func TestTriangleInequality(t *testing.T) {
	f := func(a, b, c [3]float64) bool {
		av, bv, cv := a[:], b[:], c[:]
		for _, s := range [][]float64{av, bv, cv} {
			for _, x := range s {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
					return true // skip pathological inputs
				}
			}
		}
		return Dist(av, cv) <= Dist(av, bv)+Dist(bv, cv)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
