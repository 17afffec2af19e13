package ml

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"qens/internal/rng"
)

func TestNNLearnsLinearFunction(t *testing.T) {
	x, y := syntheticLinear(600, 2, 3, 0.2, 11)
	spec := PaperNN(1)
	spec.Epochs = 60
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	pred := m.PredictBatch(xyView(x, nil))
	if r2 := R2(y, pred); r2 < 0.95 {
		t.Fatalf("R2 = %v, want > 0.95", r2)
	}
}

func TestNNLearnsNonlinearFunction(t *testing.T) {
	// y = x^2 — a linear model cannot fit this, a relu net can.
	src := rng.New(12)
	var x [][]float64
	var y []float64
	for i := 0; i < 800; i++ {
		xi := src.Uniform(-3, 3)
		x = append(x, []float64{xi})
		y = append(y, xi*xi+src.Normal(0, 0.05))
	}
	spec := PaperNN(1)
	spec.Epochs = 150
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	nnR2 := R2(y, m.PredictBatch(xyView(x, nil)))
	if nnR2 < 0.9 {
		t.Fatalf("NN R2 on x^2 = %v, want > 0.9", nnR2)
	}
	// Reference: the linear model must do much worse on the same data.
	lin := PaperLR(1).MustNew()
	if err := lin.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	linR2 := R2(y, lin.PredictBatch(xyView(x, nil)))
	if linR2 > nnR2-0.2 {
		t.Fatalf("linear R2 %v unexpectedly close to NN %v on x^2", linR2, nnR2)
	}
}

func TestNNMultiLayer(t *testing.T) {
	spec := Spec{Kind: KindNN, InputDim: 2, Hidden: []int{16, 8}, LearningRate: 0.005,
		Epochs: 120, ValidationSplit: 0.2, Seed: 13}
	src := rng.New(13)
	var x [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		x = append(x, []float64{a, b})
		y = append(y, a*b) // multiplicative interaction
	}
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, m.PredictBatch(xyView(x, nil))); r2 < 0.8 {
		t.Fatalf("deep net R2 on a*b = %v, want > 0.8", r2)
	}
}

// TestNNHistoryAndImprovement: a 40-epoch Fit at least halves the
// NN's loss.
func TestNNHistoryAndImprovement(t *testing.T) {
	x, y := syntheticLinear(400, 1, 0, 0.3, 14)
	spec := PaperNN(1)
	spec.Epochs = 40
	m := spec.MustNew()
	before := Loss(m, xyView(x, y))
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	if after := Loss(m, xyView(x, y)); after > before*0.5 {
		t.Fatalf("NN did not improve: %v -> %v", before, after)
	}
}

func TestNNPartialFit(t *testing.T) {
	x1, y1 := syntheticLinear(300, 2, 5, 0.2, 15)
	x2, y2 := syntheticLinear(300, 2, 5, 0.2, 16)
	spec := PaperNN(1)
	m := spec.MustNew()
	if err := m.PartialFit(context.Background(), xyView(x1, y1), 30); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialFit(context.Background(), xyView(x2, y2), 30); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{10})
	if math.Abs(got-25) > 4 {
		t.Fatalf("incremental NN predicts %v at x=10, want ~25", got)
	}
}

func TestNNParamsRoundTrip(t *testing.T) {
	x, y := syntheticLinear(300, -2, 1, 0.2, 17)
	spec := PaperNN(1)
	spec.Epochs = 30
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	fresh := spec.MustNew()
	if err := fresh.SetParams(m.Params()); err != nil {
		t.Fatal(err)
	}
	for _, xi := range []float64{-5, 0, 15} {
		a, b := m.Predict([]float64{xi}), fresh.Predict([]float64{xi})
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("round-trip diverges at %v: %v vs %v", xi, a, b)
		}
	}
}

func TestNNSetParamsIncompatible(t *testing.T) {
	a := PaperNN(1).MustNew()
	bSpec := PaperNN(1)
	bSpec.Hidden = []int{32}
	b := bSpec.MustNew()
	if err := b.SetParams(a.Params()); err == nil {
		t.Fatal("accepted different hidden width")
	}
}

func TestNNDeterministic(t *testing.T) {
	x, y := syntheticLinear(150, 2, 0, 0.3, 20)
	mk := func() float64 {
		spec := PaperNN(1)
		spec.Epochs = 15
		spec.Seed = 99
		m := spec.MustNew()
		if err := m.Fit(xyView(x, y)); err != nil {
			t.Fatal(err)
		}
		return m.Predict([]float64{3})
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same-seed NN training differs: %v vs %v", a, b)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Kind: "forest", InputDim: 1},
		{Kind: KindLinear, InputDim: 0},
		{Kind: KindNN, InputDim: 1}, // no hidden layers
		{Kind: KindNN, InputDim: 1, Hidden: []int{0}},
		{Kind: KindLinear, InputDim: 1, LearningRate: -1},
		{Kind: KindLinear, InputDim: 1, ValidationSplit: 1},
		{Kind: KindLinear, InputDim: 1, Epochs: -1},
	}
	for i, s := range bad {
		if _, err := s.New(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestPaperSpecsMatchTableIII(t *testing.T) {
	lr := PaperLR(1)
	if lr.LearningRate != 0.03 || lr.Epochs != 100 || lr.ValidationSplit != 0.2 {
		t.Fatalf("PaperLR deviates from Table III: %+v", lr)
	}
	nn := PaperNN(1)
	if nn.LearningRate != 0.001 || nn.Epochs != 100 || nn.ValidationSplit != 0.2 {
		t.Fatalf("PaperNN deviates from Table III: %+v", nn)
	}
	if len(nn.Hidden) != 1 || nn.Hidden[0] != 64 {
		t.Fatalf("PaperNN hidden = %v, want [64]", nn.Hidden)
	}
}

// TestOptimizers: the LR's plain SGD fits a noisy line at a learning
// rate other than Table III's.
func TestOptimizers(t *testing.T) {
	spec := Spec{Kind: KindLinear, InputDim: 1, LearningRate: 0.05, Epochs: 80, Seed: 21}
	m := spec.MustNew()
	x, y := syntheticLinear(300, 4, -1, 0.2, 22)
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, m.PredictBatch(xyView(x, nil))); r2 < 0.9 {
		t.Errorf("R2 = %v", r2)
	}
}

func TestNNPredictBatchMatchesPredict(t *testing.T) {
	x, y := syntheticLinear(200, 2, 1, 0.2, 23)
	spec := PaperNN(1)
	spec.Epochs = 10
	m := spec.MustNew()
	if err := m.Fit(xyView(x, y)); err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(xyView(x, nil))
	for i, row := range x {
		single := m.Predict(row)
		if math.Abs(batch[i]-single) > 1e-9 {
			t.Fatalf("batch[%d]=%v vs single=%v", i, batch[i], single)
		}
	}
	if m.PredictBatch(xyView(nil, nil)) != nil {
		t.Fatal("empty batch should be nil")
	}
}

func TestNNPredictBatchPanicsOnBadWidth(t *testing.T) {
	m := PaperNN(2).MustNew()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.PredictBatch(xyView([][]float64{{1}}, nil))
}

// bitsHash is FNV-1a over the IEEE-754 bits of v: two vectors hash
// alike only if they agree bit for bit (up to a 64-bit collision).
func bitsHash(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestNNFitPinned pins the NN kernel's arithmetic: incremental
// PartialFit calls over three batches (each ending on a partial
// mini-batch) at the paper's shape and with two hidden layers, so the
// backward pass also propagates through a hidden-to-hidden layer. The
// hashes and end values were produced before the mini-batch scratch
// kept its matrix headers.
func TestNNFitPinned(t *testing.T) {
	cases := []struct {
		hidden      []int
		n           int
		hash        uint64
		first, last float64
	}{
		{[]int{64}, 264, 0x2e91299838eef0d, -0.39543973192627396, 27525.964228501864},
		{[]int{8, 4}, 72, 0x9c34ebb486e829a, -0.37300052398163885, 27525.964228501864},
	}
	for _, c := range cases {
		spec := PaperNN(2)
		spec.Hidden = c.hidden
		spec.Seed = 23
		m := spec.MustNew()
		for b, n := range []int{70, 45, 101} {
			if err := m.PartialFit(context.Background(), xyView(pinnedBatch(n, 2, b*3)), 2); err != nil {
				t.Fatal(err)
			}
		}
		v := m.Params().Values
		if len(v) != c.n {
			t.Fatalf("hidden %v: %d params, want %d", c.hidden, len(v), c.n)
		}
		if h := bitsHash(v); h != c.hash || v[0] != c.first || v[len(v)-1] != c.last {
			t.Fatalf("hidden %v: params hash %#x, first %v, last %v; want %#x, %v, %v",
				c.hidden, h, v[0], v[len(v)-1], c.hash, c.first, c.last)
		}
	}
}
