package ml

import (
	"math"
	"testing"
)

// pinFitHist is one pinned fit: the bit hash of the exported params
// and of each history curve.
type pinFitHist struct {
	params, train, val uint64
}

// fitHist hashes a model's params and its last Fit's loss curves.
func fitHist(m Model) pinFitHist {
	h := m.History()
	return pinFitHist{bitsHash(m.Params().Values), bitsHash(h.TrainLoss), bitsHash(h.ValLoss)}
}

// TestFitValidationPinned pins Fit with the paper's validation split
// for both model families: the shuffled train/validation carve, the
// epochs over the train part and the per-epoch train and validation
// losses, which score both parts through the batch predictor.
func TestFitValidationPinned(t *testing.T) {
	cases := []struct {
		spec Spec
		n    int
		want pinFitHist
	}{
		{PaperLR(2), 90, pinFitHist{0xdee778fafd592636, 0x5de38da0ec4bbd56, 0x9a8b68e4ffd1625f}},
		{PaperNN(2), 75, pinFitHist{0x857e5e819aa3bb44, 0x1ff6141a30b49f13, 0x19468e754ce10b84}},
	}
	for _, c := range cases {
		spec := c.spec
		spec.Seed = 29
		spec.Epochs = 6
		m := spec.MustNew()
		if err := m.Fit(xyView(pinnedBatch(c.n, 2, 4))); err != nil {
			t.Fatal(err)
		}
		if got := fitHist(m); got != c.want {
			t.Errorf("%s: fit %#v, want %#v", spec.Kind, got, c.want)
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
