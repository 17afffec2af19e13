package federation

import (
	"math"
	"sync"
	"testing"

	"qens/internal/dataset"
	"qens/internal/ml"
)

// trainedParams trains a tiny linear model on y = slope*x and returns
// its params.
func trainedParams(t *testing.T, slope float64, seed uint64) ml.Params {
	t.Helper()
	spec := ml.PaperLR(1)
	spec.Seed = seed
	m := spec.MustNew()
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < 200; i++ {
		xv := float64(i%40) - 20
		d.MustAppend([]float64{xv, slope * xv})
	}
	if err := m.Fit(d.View()); err != nil {
		t.Fatal(err)
	}
	return m.Params()
}

func TestEnsembleModelAveragingEq6(t *testing.T) {
	// Two models: slopes 1 and 3. Plain averaging of predictions
	// must behave like slope 2.
	p1 := trainedParams(t, 1, 1)
	p2 := trainedParams(t, 3, 2)
	e, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p1, p2}, []float64{0.9, 0.1}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks must be ignored by Eq. 6.
	w := e.Weights()
	if w[0] != 0.5 || w[1] != 0.5 {
		t.Fatalf("averaging weights %v, want [0.5 0.5]", w)
	}
	got := e.Predict([]float64{10})
	if math.Abs(got-20) > 1.5 {
		t.Fatalf("averaged prediction %v at x=10, want ~20", got)
	}
}

func TestEnsembleWeightedAveragingEq7(t *testing.T) {
	p1 := trainedParams(t, 1, 3)
	p2 := trainedParams(t, 3, 4)
	// λ = (0.75, 0.25) -> effective slope 1.5.
	e, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p1, p2}, []float64{3, 1}, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Weights()
	if math.Abs(w[0]-0.75) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Fatalf("weights %v, want [0.75 0.25]", w)
	}
	if math.Abs(w[0]+w[1]-1) > 1e-12 {
		t.Fatal("λ must sum to 1 (Eq. 7)")
	}
	got := e.Predict([]float64{10})
	if math.Abs(got-15) > 1.5 {
		t.Fatalf("weighted prediction %v at x=10, want ~15", got)
	}
}

func TestEnsembleZeroRanksFallBack(t *testing.T) {
	p := trainedParams(t, 2, 5)
	e, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p, p}, []float64{0, 0}, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Weights()
	if w[0] != 0.5 || w[1] != 0.5 {
		t.Fatalf("zero-rank weights %v", w)
	}
}

func TestEnsembleErrors(t *testing.T) {
	p := trainedParams(t, 1, 6)
	if _, err := NewEnsemble(ml.PaperLR(1), nil, nil, ModelAveraging); err == nil {
		t.Fatal("accepted empty ensemble")
	}
	if _, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p}, []float64{1, 2}, ModelAveraging); err == nil {
		t.Fatal("accepted rank length mismatch")
	}
	if _, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p}, []float64{-1}, WeightedAveraging); err == nil {
		t.Fatal("accepted negative rank")
	}
	if _, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p}, []float64{1}, Aggregation(99)); err == nil {
		t.Fatal("accepted unknown aggregation")
	}
	// Incompatible params.
	if _, err := NewEnsemble(ml.PaperLR(2), []ml.Params{p}, []float64{1}, ModelAveraging); err == nil {
		t.Fatal("accepted incompatible params")
	}
}

func TestEnsemblePredictBatchAndSize(t *testing.T) {
	p := trainedParams(t, 1, 7)
	e, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p}, []float64{1}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 1 {
		t.Fatalf("size %d", e.Size())
	}
	out := e.PredictBatch([][]float64{{1}, {2}})
	if len(out) != 2 {
		t.Fatalf("batch output %v", out)
	}
}

// TestEnsembleConcurrentFirstPredict verifies the lazily loaded
// members: concurrent first predictions on one fresh ensemble (run
// under -race) all see the same fully loaded models, and every answer
// is bit-identical to Eq. 7 over models built with New + SetParams.
func TestEnsembleConcurrentFirstPredict(t *testing.T) {
	params := []ml.Params{trainedParams(t, 1, 1), trainedParams(t, 3, 2), trainedParams(t, -2, 3)}
	ranks := []float64{3, 2, 1}
	x := []float64{7}
	want := 0.0
	for i, p := range params {
		m := ml.PaperLR(1).MustNew()
		if err := m.SetParams(p); err != nil {
			t.Fatal(err)
		}
		want += ranks[i] / 6 * m.Predict(x)
	}
	e, err := NewEnsemble(ml.PaperLR(1), params, ranks, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]float64, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = e.Predict(x)
		}()
	}
	wg.Wait()
	for g, v := range got {
		if v != want {
			t.Fatalf("goroutine %d predicted %v, want %v", g, v, want)
		}
	}
}

func TestFedAvgParams(t *testing.T) {
	a := ml.Params{Kind: "linear", Dims: []int{1, 1}, Values: []float64{2, 0}}
	b := ml.Params{Kind: "linear", Dims: []int{1, 1}, Values: []float64{4, 2}}
	avg, err := FedAvgParams([]ml.Params{a, b}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Values[0] != 3 || avg.Values[1] != 1 {
		t.Fatalf("fedavg = %v", avg.Values)
	}
	// Weighted.
	avg, err = FedAvgParams([]ml.Params{a, b}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Values[0] != 2.5 {
		t.Fatalf("weighted fedavg = %v", avg.Values)
	}
	// Zero weights degrade to uniform.
	avg, err = FedAvgParams([]ml.Params{a, b}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Values[0] != 3 {
		t.Fatalf("zero-weight fedavg = %v", avg.Values)
	}
}

func TestFedAvgParamsErrors(t *testing.T) {
	a := ml.Params{Kind: "linear", Dims: []int{1, 1}, Values: []float64{1, 1}}
	c := ml.Params{Kind: "linear", Dims: []int{2, 1}, Values: []float64{1, 1, 1}}
	if _, err := FedAvgParams(nil, nil); err == nil {
		t.Fatal("accepted empty")
	}
	if _, err := FedAvgParams([]ml.Params{a}, []float64{1, 2}); err == nil {
		t.Fatal("accepted weight mismatch")
	}
	if _, err := FedAvgParams([]ml.Params{a, c}, []float64{1, 1}); err == nil {
		t.Fatal("accepted incompatible params")
	}
	if _, err := FedAvgParams([]ml.Params{a}, []float64{-1}); err == nil {
		t.Fatal("accepted negative weight")
	}
}

func TestAggregationString(t *testing.T) {
	if ModelAveraging.String() != "averaging" || WeightedAveraging.String() != "weighted" {
		t.Fatal("aggregation names wrong")
	}
	if Aggregation(42).String() == "" {
		t.Fatal("unknown aggregation should still format")
	}
}
