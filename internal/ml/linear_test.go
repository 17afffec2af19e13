package ml

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qens/internal/dataset"
	"qens/internal/rng"
)

// xyView is the identity view over a dataset whose rows are x's with
// y appended as the target column; a nil y gives zero targets, for
// views that are only predicted on.
func xyView(x [][]float64, y []float64) dataset.View {
	d := 1
	if len(x) > 0 {
		d = len(x[0])
	}
	cols := make([]string, d+1)
	for j := range cols {
		cols[j] = fmt.Sprintf("x%d", j)
	}
	cols[d] = "y"
	ds := dataset.MustNew(cols, "y")
	row := make([]float64, d+1)
	for i, xi := range x {
		copy(row, xi)
		row[d] = 0
		if y != nil {
			row[d] = y[i]
		}
		ds.MustAppend(row)
	}
	return ds.View()
}

// syntheticLinear draws y = slope*x + intercept + noise.
func syntheticLinear(n int, slope, intercept, noise float64, seed uint64) (x [][]float64, y []float64) {
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		xv := src.Uniform(-10, 30)
		x = append(x, []float64{xv})
		y = append(y, slope*xv+intercept+src.Normal(0, noise))
	}
	return x, y
}

func TestLinearLearnsLine(t *testing.T) {
	x, y := syntheticLinear(500, 2.5, -7, 0.5, 1)
	m := PaperLR(1).MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	// Check predictions at known points.
	for _, xi := range []float64{-5, 0, 10, 25} {
		want := 2.5*xi - 7
		got := m.Predict([]float64{xi})
		if math.Abs(got-want) > 2 {
			t.Fatalf("Predict(%v) = %v, want ~%v", xi, got, want)
		}
	}
}

func TestLinearMultiFeature(t *testing.T) {
	src := rng.New(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 800; i++ {
		a, b := src.Uniform(0, 10), src.Uniform(-5, 5)
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+1+src.Normal(0, 0.2))
	}
	spec := PaperLR(2)
	spec.Epochs = 200
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	pred := m.PredictBatch(xyView(x, nil))
	if r2 := R2(y, pred); r2 < 0.97 {
		t.Fatalf("R2 = %v, want > 0.97", r2)
	}
}

// TestLinearHistory: a full Fit at least halves the model's loss.
func TestLinearHistory(t *testing.T) {
	x, y := syntheticLinear(200, 1, 0, 0.1, 3)
	m := PaperLR(1).MustNew()
	before := Loss(m, xyView(x, y))
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	if after := Loss(m, xyView(x, y)); after > before*0.5 {
		t.Fatalf("loss did not improve: %v -> %v", before, after)
	}
}

func TestLinearPartialFitIncremental(t *testing.T) {
	// Two mini-batches from the same line must converge to the line.
	x1, y1 := syntheticLinear(300, 2, 5, 0.3, 4)
	x2, y2 := syntheticLinear(300, 2, 5, 0.3, 5)
	m := PaperLR(1).MustNew()
	if err := m.PartialFit(context.Background(), xyView(x1, y1), 60); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialFit(context.Background(), xyView(x2, y2), 60); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{10})
	if math.Abs(got-25) > 3 {
		t.Fatalf("incremental fit predicts %v at x=10, want ~25", got)
	}
}

func TestLinearErrors(t *testing.T) {
	m := PaperLR(2).MustNew()
	if err := m.Fit(xyView([][]float64{}, nil)); err == nil {
		t.Fatal("fit accepted empty batch")
	}
	if err := m.Fit(xyView([][]float64{{1}}, []float64{1})); err == nil {
		t.Fatal("fit accepted wrong width")
	}
	if err := m.PartialFit(context.Background(), xyView([][]float64{{1, 2}}, []float64{1}), 0); err == nil {
		t.Fatal("partial fit accepted zero epochs")
	}
}

func TestLinearParamsRoundTrip(t *testing.T) {
	x, y := syntheticLinear(300, -1.5, 3, 0.2, 6)
	m := PaperLR(1).MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	fresh := PaperLR(1).MustNew()
	if err := fresh.SetParams(p); err != nil {
		t.Fatal(err)
	}
	for _, xi := range []float64{-3, 0, 12} {
		a, b := m.Predict([]float64{xi}), fresh.Predict([]float64{xi})
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("round-tripped model diverges at %v: %v vs %v", xi, a, b)
		}
	}
}

func TestLinearSetParamsIncompatible(t *testing.T) {
	m1 := PaperLR(1).MustNew()
	m2 := PaperLR(2).MustNew()
	if err := m2.SetParams(m1.Params()); err == nil {
		t.Fatal("accepted incompatible params")
	}
	nn := PaperNN(1).MustNew()
	if err := m1.SetParams(nn.Params()); err == nil {
		t.Fatal("accepted params of different kind")
	}
}

func TestLinearDeterministicTraining(t *testing.T) {
	x, y := syntheticLinear(150, 2, 0, 0.5, 9)
	mk := func() float64 {
		spec := PaperLR(1)
		spec.Seed = 42
		m := spec.MustNew()
		if err := m.Fit(xyView(x, y)); err != nil {
			t.Fatal(err)
		}
		return m.Predict([]float64{3})
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same-seed training differs: %v vs %v", a, b)
	}
}

func TestSGDMatchesOLSOnCleanData(t *testing.T) {
	// With noise 0.01 the least-squares line is the generating one.
	x, y := syntheticLinear(1000, 3, -2, 0.01, 10)
	spec := PaperLR(1)
	spec.Epochs = 300
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	for _, xi := range []float64{-8, 0, 20} {
		ols := 3*xi - 2
		sgd := m.Predict([]float64{xi})
		if math.Abs(ols-sgd) > 1.0 {
			t.Fatalf("SGD %v vs OLS %v at x=%v", sgd, ols, xi)
		}
	}
}
