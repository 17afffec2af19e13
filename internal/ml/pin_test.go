package ml

import (
	"math"
	"testing"
)

// TestFitValidationPinned pins Fit with the paper's validation split
// for both model families: the shuffled train/validation carve and the
// epochs over the train part, through the exported params.
func TestFitValidationPinned(t *testing.T) {
	cases := []struct {
		spec Spec
		n    int
		want uint64
	}{
		{PaperLR(2), 90, 0xdee778fafd592636},
		{PaperNN(2), 75, 0x857e5e819aa3bb44},
	}
	for _, c := range cases {
		spec := c.spec
		spec.Seed = 29
		spec.Epochs = 6
		m := spec.MustNew()
		if err := m.Fit(xyView(pinnedBatch(c.n, 2, 4))); err != nil {
			t.Fatal(err)
		}
		if got := bitsHash(m.Params().Values); got != c.want {
			t.Errorf("%s: params hash %#x, want %#x", spec.Kind, got, c.want)
		}
	}
}

// TestPredictBatchPinned pins the batch predictor of both model
// families over a trained model, at more rows than one mini-batch. The
// LR batch scores each row as Predict does, to the last bit; the NN's
// matrix pass adds the bias after the weighted sum, so only the pin
// holds it.
func TestPredictBatchPinned(t *testing.T) {
	cases := []struct {
		spec Spec
		want uint64
	}{
		{PaperLR(2), 0xfa6b9bcd688e2e69},
		{PaperNN(2), 0x47bf5c0d45d62e54},
	}
	for _, c := range cases {
		spec := c.spec
		spec.Seed = 31
		spec.Epochs = 3
		m := spec.MustNew()
		if err := m.Fit(xyView(pinnedBatch(80, 2, 2))); err != nil {
			t.Fatal(err)
		}
		px, py := pinnedBatch(45, 2, 9)
		got := m.PredictBatch(xyView(px, py))
		if h := bitsHash(got); h != c.want {
			t.Errorf("%s: predictions hash %#x, want %#x", spec.Kind, h, c.want)
		}
		for i, row := range px {
			if p := m.Predict(row); spec.Kind == KindLinear && math.Float64bits(p) != math.Float64bits(got[i]) {
				t.Fatalf("row %d: Predict %v, batch %v", i, p, got[i])
			}
		}
	}
}
