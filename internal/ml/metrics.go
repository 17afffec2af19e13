package ml

// Regression metrics. All take (truth, prediction) slices of equal
// length and panic on mismatch — a length mismatch is always a
// programming error in the harness, never a data condition.

func checkLens(y, pred []float64) {
	if len(y) != len(pred) {
		panic("ml: metric length mismatch")
	}
}

// MSE returns the mean squared error, the paper's loss metric.
func MSE(y, pred []float64) float64 {
	checkLens(y, pred)
	if len(y) == 0 {
		return 0
	}
	s := 0.0
	for i := range y {
		d := y[i] - pred[i]
		s += d * d
	}
	return s / float64(len(y))
}

// R2 returns the coefficient of determination. A constant truth vector
// yields R2 = 0 by convention (undefined variance).
func R2(y, pred []float64) float64 {
	checkLens(y, pred)
	if len(y) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i := range y {
		ssRes += (y[i] - pred[i]) * (y[i] - pred[i])
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
