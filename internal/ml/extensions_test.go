package ml

import (
	"math"
	"testing"

	"qens/internal/rng"
)

func TestActivationsLearn(t *testing.T) {
	// Each nonlinearity must still fit x^2 decently.
	src := seedBatchSource(31)
	var x [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		xi := src.Uniform(-2, 2)
		x = append(x, []float64{xi})
		y = append(y, xi*xi)
	}
	for _, act := range []string{ActivationRelu, ActivationTanh, ActivationSigmoid} {
		spec := Spec{Kind: KindNN, InputDim: 1, Hidden: []int{32}, LearningRate: 0.005,
			Epochs: 120, Optimizer: "adam", Activation: act, Seed: 5}
		m := spec.MustNew()
		if err := m.Fit(xyView(x, y)); err != nil {
			t.Fatalf("%s: %v", act, err)
		}
		if r2 := R2(y, m.PredictBatch(xyView(x, nil))); r2 < 0.85 {
			t.Errorf("%s: R2 = %v, want > 0.85", act, r2)
		}
	}
}

func TestLinearActivationCannotFitSquare(t *testing.T) {
	// A purely linear "NN" must fail on x^2 — the derivative chain is
	// the identity, so depth adds nothing.
	src := seedBatchSource(32)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		xi := src.Uniform(-2, 2)
		x = append(x, []float64{xi})
		y = append(y, xi*xi)
	}
	spec := Spec{Kind: KindNN, InputDim: 1, Hidden: []int{32}, LearningRate: 0.005,
		Epochs: 80, Optimizer: "adam", Activation: ActivationLinear, Seed: 5}
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, m.PredictBatch(xyView(x, nil))); r2 > 0.3 {
		t.Fatalf("linear activation fit x^2 with R2 %v — nonlinearity is leaking", r2)
	}
}

func TestUnknownActivationRejected(t *testing.T) {
	spec := Spec{Kind: KindNN, InputDim: 1, Hidden: []int{4}, Activation: "swish"}
	if _, err := spec.New(); err == nil {
		t.Fatal("accepted unknown activation")
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	x, y := syntheticLinear(400, 5, 0, 0.2, 33)
	base := PaperLR(1)
	base.Seed = 9
	unreg := base.MustNew()
	if err := unreg.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	reg := base
	reg.L2 = 5 // heavy decay
	regM := reg.MustNew()
	if err := regM.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	// Compare the learned (standardized-space) weight magnitude.
	wU := unreg.Params().Values[0]
	wR := regM.Params().Values[0]
	if math.Abs(wR) >= math.Abs(wU) {
		t.Fatalf("L2 did not shrink weight: %v vs %v", wR, wU)
	}
	if _, err := (Spec{Kind: KindLinear, InputDim: 1, L2: -1}).New(); err == nil {
		t.Fatal("accepted negative L2")
	}
}

func TestEarlyStopping(t *testing.T) {
	x, y := syntheticLinear(400, 2, 1, 0.3, 34)
	spec := PaperLR(1)
	spec.Epochs = 100
	spec.Patience = 3
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	h := m.History()
	if len(h.TrainLoss) >= 100 {
		t.Fatalf("early stopping never triggered (%d epochs)", len(h.TrainLoss))
	}
	// Patience without a validation split is a config error.
	bad := PaperLR(1)
	bad.ValidationSplit = 0
	bad.Patience = 3
	if _, err := bad.New(); err == nil {
		t.Fatal("accepted patience without validation split")
	}
}

func TestStopEarlyLogic(t *testing.T) {
	if stopEarly([]float64{5, 4, 3}, 0) {
		t.Fatal("patience 0 must never stop")
	}
	if stopEarly([]float64{5, 4, 3}, 3) {
		t.Fatal("improving history must not stop")
	}
	if !stopEarly([]float64{3, 4, 5, 6}, 3) {
		t.Fatal("3 epochs without improvement should stop at patience 3")
	}
	if stopEarly([]float64{3, 4, 5}, 3) {
		t.Fatal("only 2 bad epochs, patience 3 should continue")
	}
}

func TestPatienceValidation(t *testing.T) {
	if _, err := (Spec{Kind: KindLinear, InputDim: 1, Patience: -1}).New(); err == nil {
		t.Fatal("accepted negative patience")
	}
}

// seedBatchSource is a tiny helper for test-local data generation.
func seedBatchSource(seed uint64) *rng.Source { return rng.New(seed) }

func TestLRDecayValidation(t *testing.T) {
	if _, err := (Spec{Kind: KindLinear, InputDim: 1, LRDecay: -0.5}).New(); err == nil {
		t.Fatal("accepted negative decay")
	}
	if _, err := (Spec{Kind: KindLinear, InputDim: 1, LRDecay: 1.5}).New(); err == nil {
		t.Fatal("accepted decay > 1")
	}
}

func TestLRDecayStabilizes(t *testing.T) {
	// With an aggressively high base learning rate, per-epoch decay
	// must still converge while the undecayed run oscillates more.
	x, y := syntheticLinear(400, 3, -2, 0.3, 40)
	decayed := Spec{Kind: KindLinear, InputDim: 1, LearningRate: 0.5,
		Epochs: 80, LRDecay: 0.93, Seed: 4}
	m := decayed.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, m.PredictBatch(xyView(x, nil))); r2 < 0.95 {
		t.Fatalf("decayed run R2 = %v", r2)
	}
	// And decay must actually shrink the optimizer step: final-epoch
	// train-loss wobble should be tiny.
	h := m.History().TrainLoss
	tail := h[len(h)-10:]
	lo, hi := tail[0], tail[0]
	for _, v := range tail {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > h[0]*0.05 {
		t.Fatalf("late-epoch wobble %v too large vs initial loss %v", hi-lo, h[0])
	}
}
