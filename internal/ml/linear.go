package ml

import (
	"context"
	"fmt"

	"qens/internal/dataset"
	"qens/internal/rng"
)

// linear is the paper's LR model: a single dense unit, y = w·x + b,
// trained with mini-batch SGD under MSE loss (Table III).
// Inputs and targets are standardized with streaming statistics; the
// learned weights therefore live in standardized space and predictions
// are mapped back to the raw target scale.
type linear struct {
	spec    Spec
	weights []float64 // len inputDim
	bias    float64
	stats   *runningStats
	src     *rng.Source

	// scratch holds reusable fit buffers (permutation, residuals,
	// gradient, the standardized batch and per-feature std) so the
	// steady-state training loop performs zero allocations. Lazily
	// sized; makes the model unsafe for concurrent use (see Model
	// docs).
	scratch struct {
		perm []int
		res  []float64 // one mini-batch's 2·residuals
		grad []float64
		sd   []float64
		xs   []float64 // standardized rows, stride InputDim
		ys   []float64 // standardized targets
	}
}

// newLinear allocates an LR model with zero weights: Spec.New draws
// the initial ones (initWeights), Spec.Load overwrites them.
func newLinear(spec Spec, src *rng.Source) *linear {
	return &linear{
		spec:    spec,
		weights: make([]float64, spec.InputDim),
		stats:   newRunningStats(spec.InputDim),
		src:     src,
	}
}

// initWeights draws the initial weights: a small symmetric init,
// matching a Keras Dense(1) glorot-ish start.
func (m *linear) initWeights() {
	for i := range m.weights {
		m.weights[i] = m.src.Uniform(-0.05, 0.05)
	}
}

// Fit trains for the configured epochs with a validation split.
func (m *linear) Fit(v dataset.View) error {
	if err := checkView(v, m.spec.InputDim); err != nil {
		return err
	}
	train := trainSplit(v, m.spec.ValidationSplit, m.src)
	m.stats.observe(train)
	xs, ys := m.standardize(train)
	for epoch := 0; epoch < m.spec.Epochs; epoch++ {
		if err := m.runEpoch(context.Background(), xs, ys); err != nil {
			return err
		}
	}
	return nil
}

// PartialFit continues training on a batch without resetting weights.
func (m *linear) PartialFit(ctx context.Context, v dataset.View, epochs int) error {
	if err := checkView(v, m.spec.InputDim); err != nil {
		return err
	}
	if epochs < 1 {
		return fmt.Errorf("ml: partial fit epochs %d < 1", epochs)
	}
	m.stats.observe(v)
	xs, ys := m.standardize(v)
	for e := 0; e < epochs; e++ {
		if err := m.runEpoch(ctx, xs, ys); err != nil {
			return err
		}
	}
	return nil
}

// ensureScratch sizes the reusable fit buffers for n samples.
func (m *linear) ensureScratch(n int) {
	d := m.spec.InputDim
	if cap(m.scratch.perm) < n {
		m.scratch.perm = make([]int, n)
		m.scratch.xs = make([]float64, n*d)
		m.scratch.ys = make([]float64, n)
	}
	if m.scratch.grad == nil {
		m.scratch.res = make([]float64, batchSize)
		m.scratch.grad = make([]float64, d+1)
		m.scratch.sd = make([]float64, d)
	}
}

// standardize writes the view's rows, standardized with the current
// statistics, into model scratch as flat row-major features and
// targets, which every epoch of the fit then reads: the statistics
// stay fixed for the rest of the fit, so each feature's std (a Sqrt)
// is worked out once per call. Each value is the subtract-then-divide
// normX/normY compute, so the rows are bit-identical to theirs.
func (m *linear) standardize(v dataset.View) (xs, ys []float64) {
	n, d, t := v.Len(), m.spec.InputDim, v.TargetIndex()
	m.ensureScratch(n)
	sd := m.scratch.sd
	for j := range sd {
		sd[j] = m.stats.std(j)
	}
	yMean, ySD := m.stats.yMean, m.stats.yStd()
	xs, ys = m.scratch.xs[:n*d], m.scratch.ys[:n]
	for i := range ys {
		row, out, j := v.Row(i), xs[i*d:(i+1)*d], 0
		for c, x := range row {
			if c == t {
				continue
			}
			out[j] = (x - m.stats.mean[j]) / sd[j]
			j++
		}
		ys[i] = (row[t] - yMean) / ySD
	}
	return xs, ys
}

// runEpoch performs one pass of shuffled mini-batch updates over a
// standardized batch, checking ctx before every mini-batch. All
// working memory comes from the model's scratch, so a steady-state
// epoch allocates nothing.
//
// Each mini-batch first scores its samples into 2·residual terms, then
// sums every gradient component in a register over the batch. That is
// the per-sample loop with its two loops interchanged: component j
// still adds 2·err·x_j·invN, evaluated left to right, sample by sample
// in shuffled order onto a zero start, so every sum is bit-identical.
func (m *linear) runEpoch(ctx context.Context, xs, ys []float64) error {
	n, d := len(ys), m.spec.InputDim
	perm := m.src.PermInto(m.scratch.perm[:n])
	grad, lr := m.scratch.grad[:d+1], m.spec.LearningRate
	weights := m.weights[:d]
	for start := 0; start < n; start += batchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+batchSize, n)
		batch := perm[start:end]
		res := m.scratch.res[:len(batch)]
		invN := 1 / float64(len(batch))
		for k, idx := range batch {
			xn := xs[idx*d : idx*d+d]
			pred := m.bias
			for j, w := range weights {
				pred += w * xn[j]
			}
			res[k] = 2 * (pred - ys[idx])
		}
		for j := range weights {
			g := 0.0
			for k, idx := range batch {
				g += res[k] * xs[idx*d+j] * invN
			}
			grad[j] = g
		}
		g := 0.0
		for _, r := range res {
			g += r * invN
		}
		grad[d] = g
		clipGradient(grad, 10)
		for j, gj := range grad[:d] {
			weights[j] -= lr * gj
		}
		m.bias -= lr * grad[d]
	}
	return nil
}

// Predict returns the raw-scale prediction for one input.
func (m *linear) Predict(x []float64) float64 { return m.predict(x, -1) }

// predict scores the features of row — every column but skip —
// standardizing each as it scores it: the arithmetic of normX then the
// weighted sum, without a buffer, so concurrent calls share nothing.
func (m *linear) predict(row []float64, skip int) float64 {
	out, j := m.bias, 0
	for c, v := range row {
		if c == skip {
			continue
		}
		out += m.weights[j] * ((v - m.stats.mean[j]) / m.stats.std(j))
		j++
	}
	return m.stats.denormY(out)
}

// PredictBatch returns raw-scale predictions for every row of v.
func (m *linear) PredictBatch(v dataset.View) []float64 {
	if err := checkWidth(v, m.spec.InputDim); err != nil {
		panic(err)
	}
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = m.predict(v.Row(i), v.TargetIndex())
	}
	return out
}

// Reinit re-seeds and re-initializes the model in place (see Model).
func (m *linear) Reinit(seed uint64, params Params) error {
	m.src.Reseed(seed)
	m.initWeights() // the same draws, in the same order, as Spec.New
	m.bias = 0
	m.stats.reset()
	if len(params.Values) > 0 {
		return m.SetParams(params)
	}
	return nil
}

// Params exports weights, bias and normalization state.
func (m *linear) Params() Params {
	values := make([]float64, 0, len(m.weights)+1+statsFlatLen(m.spec.InputDim))
	values = append(values, m.weights...)
	values = append(values, m.bias)
	values = m.stats.appendTo(values)
	return Params{Kind: KindLinear, Dims: paramDims(m.spec.InputDim, nil), Values: values}
}

// SetParams loads an exported snapshot.
func (m *linear) SetParams(p Params) error {
	if err := m.spec.checkParams(p); err != nil {
		return err
	}
	copy(m.weights, p.Values[:m.spec.InputDim])
	m.bias = p.Values[m.spec.InputDim]
	m.stats.unflatten(p.Values[m.spec.InputDim+1:])
	return nil
}
