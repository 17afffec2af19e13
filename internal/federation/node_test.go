package federation

import (
	"context"
	"math"
	"testing"

	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
)

// lineDataset builds y = slope*x + b + noise over [lo, hi].
func lineDataset(n int, slope, intercept, lo, hi float64, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		x := src.Uniform(lo, hi)
		d.MustAppend([]float64{x, slope*x + intercept + src.Normal(0, 0.3)})
	}
	return d
}

func TestNewNodeValidation(t *testing.T) {
	d := lineDataset(50, 1, 0, 0, 10, 1)
	if _, err := NewNode("", d, 3, rng.New(1)); err == nil {
		t.Fatal("accepted empty id")
	}
	if _, err := NewNode("n", nil, 3, rng.New(1)); err == nil {
		t.Fatal("accepted nil data")
	}
	if _, err := NewNode("n", dataset.MustNew([]string{"x", "y"}, "y"), 3, rng.New(1)); err == nil {
		t.Fatal("accepted empty data")
	}
	if _, err := NewNode("n", d, 0, rng.New(1)); err == nil {
		t.Fatal("accepted K=0")
	}
	n, err := NewNode("n", d, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != "n" {
		t.Fatalf("id = %s", n.ID())
	}
}

func TestNodeSummary(t *testing.T) {
	d := lineDataset(100, 2, 0, 0, 10, 2)
	n, err := NewNode("n1", d, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	s := n.Summary()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.K() != 5 || s.TotalSamples != 100 {
		t.Fatalf("summary %+v", s)
	}
}

func TestNodeTrainWholeData(t *testing.T) {
	d := lineDataset(300, 3, 1, 0, 20, 3)
	n, err := NewNode("n", d, 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Train(TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SamplesUsed != 300 || resp.TotalSamples != 300 {
		t.Fatalf("samples %d/%d", resp.SamplesUsed, resp.TotalSamples)
	}
	if resp.TrainTime <= 0 {
		t.Fatal("train time not recorded")
	}
	// Load the returned model and check it learned the line.
	m := ml.PaperLR(1).MustNew()
	if err := m.SetParams(resp.Params); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{10}); math.Abs(got-31) > 4 {
		t.Fatalf("trained model predicts %v at x=10, want ~31", got)
	}
}

func TestNodeTrainOnClusters(t *testing.T) {
	d := lineDataset(300, 1, 0, 0, 100, 4)
	n, err := NewNode("n", d, 5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Train(TrainRequest{Spec: ml.PaperLR(1), Clusters: []int{0, 2}, LocalEpochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SamplesUsed >= 300 || resp.SamplesUsed <= 0 {
		t.Fatalf("cluster-restricted training used %d samples", resp.SamplesUsed)
	}
	sum := n.Summary()
	want := sum.Clusters[0].Size + sum.Clusters[2].Size
	if resp.SamplesUsed != want {
		t.Fatalf("used %d, want %d (clusters 0+2)", resp.SamplesUsed, want)
	}
}

func TestNodeTrainErrors(t *testing.T) {
	d := lineDataset(50, 1, 0, 0, 10, 5)
	n, _ := NewNode("n", d, 3, rng.New(5))
	if _, err := n.Train(TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 0}); err == nil {
		t.Fatal("accepted zero epochs")
	}
	if _, err := n.Train(TrainRequest{Spec: ml.PaperLR(1), Clusters: []int{99}, LocalEpochs: 1}); err == nil {
		t.Fatal("accepted bad cluster index")
	}
	bad := ml.Spec{Kind: "nope", InputDim: 1}
	if _, err := n.Train(TrainRequest{Spec: bad, LocalEpochs: 1}); err == nil {
		t.Fatal("accepted bad spec")
	}
}

func TestNodeTrainContinuesFromParams(t *testing.T) {
	d := lineDataset(400, 2, 5, 0, 30, 6)
	n, _ := NewNode("n", d, 5, rng.New(6))
	spec := ml.PaperLR(1)
	// First round.
	r1, err := n.Train(TrainRequest{Spec: spec, LocalEpochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Second round starting from the first round's params must not
	// regress the fit.
	r2, err := n.Train(TrainRequest{Spec: spec, Params: r1.Params, LocalEpochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	m := spec.MustNew()
	if err := m.SetParams(r2.Params); err != nil {
		t.Fatal(err)
	}
	if mse := ml.Loss(m, d.View()); mse > 2 {
		t.Fatalf("two-round training MSE %v", mse)
	}
}

func TestNodeEvaluate(t *testing.T) {
	d := lineDataset(300, 2, 0, 0, 10, 7)
	n, _ := NewNode("n", d, 5, rng.New(7))
	spec := ml.PaperLR(1)
	resp, err := n.Train(TrainRequest{Spec: spec, LocalEpochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := n.EvaluateContext(context.Background(), EvalRequest{Spec: spec, Params: resp.Params})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Samples != 300 {
		t.Fatalf("evaluated %d samples", ev.Samples)
	}
	if ev.MSE > 2 {
		t.Fatalf("self-evaluation MSE %v", ev.MSE)
	}
	// An untrained model must do much worse.
	fresh := spec.MustNew()
	evFresh, err := n.EvaluateContext(context.Background(), EvalRequest{Spec: spec, Params: fresh.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if evFresh.MSE < ev.MSE*5 {
		t.Fatalf("untrained MSE %v not clearly worse than trained %v", evFresh.MSE, ev.MSE)
	}
}
