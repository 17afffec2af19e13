package ml

import (
	"math"
	"testing"
)

func TestMSE(t *testing.T) {
	y := []float64{1, 2, 3}
	pred := []float64{1, 2, 3}
	if MSE(y, pred) != 0 {
		t.Fatal("perfect prediction should have zero MSE")
	}
	pred = []float64{2, 3, 4}
	if MSE(y, pred) != 1 {
		t.Fatalf("MSE = %v", MSE(y, pred))
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE should be 0")
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if got := R2(y, y); got != 1 {
		t.Fatalf("perfect R2 = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(y, mean); math.Abs(got) > 1e-12 {
		t.Fatalf("mean-prediction R2 = %v", got)
	}
	// Constant truth: convention 0.
	if got := R2([]float64{5, 5}, []float64{4, 6}); got != 0 {
		t.Fatalf("constant-truth R2 = %v", got)
	}
}

func TestMetricsPanicOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"MSE": func() { MSE([]float64{1}, []float64{1, 2}) },
		"R2":  func() { R2([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on mismatch", name)
				}
			}()
			f()
		}()
	}
}
