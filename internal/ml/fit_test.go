package ml

import (
	"context"
	"errors"
	"testing"
)

// flatSpecs returns one spec per model family; the NN's two hidden
// layers and Adam moments give Reinit real state to reset.
func flatSpecs() []Spec {
	nn := PaperNN(3)
	nn.Hidden = []int{8, 4}
	return []Spec{PaperLR(3), nn}
}

// flatBatch synthesizes a deterministic training batch.
func flatBatch(n, d int) (x [][]float64, y []float64) {
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64((i*7+j*3)%13) - 6 + float64(i)/17
		}
		x[i] = row
		y[i] = 2*row[0] - row[1] + 0.5*row[2] + float64(i%5)
	}
	return x, y
}

// TestReinitBitExactWithFresh verifies pool-style arena reuse: a used
// model Reinit'ed with a new seed must be indistinguishable — same
// params after the same training — from a freshly constructed one.
func TestReinitBitExactWithFresh(t *testing.T) {
	for _, spec := range flatSpecs() {
		x2, y := flatBatch(80, spec.InputDim)

		dirty := spec
		dirty.Seed = 1
		m := dirty.MustNew()
		if err := m.PartialFit(context.Background(), xyView(x2, y), 2); err != nil { // accumulate state
			t.Fatal(err)
		}
		if err := m.Reinit(77, Params{}); err != nil {
			t.Fatal(err)
		}
		fresh := spec
		fresh.Seed = 77
		f := fresh.MustNew()

		for round := 0; round < 2; round++ {
			if err := m.PartialFit(context.Background(), xyView(x2, y), 1); err != nil {
				t.Fatal(err)
			}
			if err := f.PartialFit(context.Background(), xyView(x2, y), 1); err != nil {
				t.Fatal(err)
			}
		}
		pm, pf := m.Params(), f.Params()
		for i := range pf.Values {
			if pm.Values[i] != pf.Values[i] {
				t.Fatalf("%s: param %d: reinit %v != fresh %v", spec.Kind, i, pm.Values[i], pf.Values[i])
			}
		}
	}
}

// TestReinitLoadsParams verifies Reinit(seed, params) equals fresh
// construction + SetParams.
func TestReinitLoadsParams(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 3
		x2, y := flatBatch(60, spec.InputDim)
		donor := spec.MustNew()
		if err := donor.PartialFit(context.Background(), xyView(x2, y), 1); err != nil {
			t.Fatal(err)
		}
		snapshot := donor.Params()

		m := spec.MustNew()
		if err := m.PartialFit(context.Background(), xyView(x2, y), 3); err != nil {
			t.Fatal(err)
		}
		if err := m.Reinit(3, snapshot); err != nil {
			t.Fatal(err)
		}
		f := spec.MustNew()
		if err := f.SetParams(snapshot); err != nil {
			t.Fatal(err)
		}
		if err := m.PartialFit(context.Background(), xyView(x2, y), 1); err != nil {
			t.Fatal(err)
		}
		if err := f.PartialFit(context.Background(), xyView(x2, y), 1); err != nil {
			t.Fatal(err)
		}
		pm, pf := m.Params(), f.Params()
		for i := range pf.Values {
			if pm.Values[i] != pf.Values[i] {
				t.Fatalf("%s: param %d: reinit+params %v != fresh+set %v", spec.Kind, i, pm.Values[i], pf.Values[i])
			}
		}
	}
}

// TestPartialFitContextCancel verifies training aborts at a mini-batch
// boundary once the context is done.
func TestPartialFitContextCancel(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 2
		x2, y := flatBatch(128, spec.InputDim)
		m := spec.MustNew()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := m.PartialFit(ctx, xyView(x2, y), 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled fit returned %v", spec.Kind, err)
		}
	}
}

// TestPartialFitSteadyStateZeroAlloc pins the LR fit's allocation
// contract: after a warm-up call, repeated fits on a same-shaped view
// allocate nothing, and a batch prediction allocates only its result.
func TestPartialFitSteadyStateZeroAlloc(t *testing.T) {
	spec := PaperLR(3)
	spec.Seed = 4
	v := xyView(flatBatch(256, spec.InputDim))
	m := spec.MustNew()
	ctx := context.Background()
	if err := m.PartialFit(ctx, v, 1); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.PartialFit(ctx, v, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state PartialFit allocates %v per run", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() { m.PredictBatch(v) })
	if allocs != 1 {
		t.Fatalf("PredictBatch allocates %v per run, want 1 (its result)", allocs)
	}
}
