package ml

import (
	"context"
	"fmt"
	"math"

	"qens/internal/dataset"
	"qens/internal/matrix"
	"qens/internal/rng"
)

// neuralNet is the paper's NN model: a dense multi-layer perceptron
// with relu hidden activations and a linear output unit, trained with
// mini-batch Adam under MSE loss (Table III: one hidden layer of 64
// units, lr 0.001, 100 epochs, validation split 0.2).
// Like the linear model it standardizes inputs/targets with streaming
// statistics.
type neuralNet struct {
	spec   Spec
	layers []denseLayer
	stats  *runningStats
	opt    *adam
	src    *rng.Source

	// scratch holds the reusable forward/backward working set: the
	// permutation, the normalized input matrix, per-layer activation
	// and delta backings and the matrix headers over them, the flat
	// gradient and parameter vectors. Sized lazily to the largest
	// batch seen; reuse across batches and epochs keeps steady-state
	// training allocation-free and is what the engine's model pool
	// recycles. Makes the model unsafe for concurrent use (see Model
	// docs).
	scratch struct {
		perm     []int
		input    []float64
		actBuf   [][]float64    // index l+1: backing for layer l's output
		deltaBuf [][]float64    // index l: backing for deltas with widths[l] cols
		acts     []matrix.Dense // index 0: the input; l+1: layer l's output
		deltas   []matrix.Dense // index l: deltas over deltaBuf[l]
		gw       matrix.Dense   // the weight gradient of the layer in hand
		target   []float64
		grad     []float64
		params   []float64
	}
}

// denseLayer holds weights (in x out) and biases (out). hidden marks
// layers followed by relu; the output layer is linear.
type denseLayer struct {
	w      *matrix.Dense
	b      []float64
	hidden bool
}

// newNeuralNet allocates an NN with zero weights: Spec.New draws the
// initial ones (initWeights), Spec.Load overwrites them.
func newNeuralNet(spec Spec, src *rng.Source) *neuralNet {
	widths := paramDims(spec.InputDim, spec.Hidden)
	layers := make([]denseLayer, len(widths)-1)
	for l := range layers {
		out := widths[l+1]
		layers[l] = denseLayer{w: matrix.NewDense(widths[l], out), b: make([]float64, out), hidden: l < len(layers)-1}
	}
	m := &neuralNet{
		spec:   spec,
		layers: layers,
		stats:  newRunningStats(spec.InputDim),
		src:    src,
	}
	m.opt = newAdam(spec.LearningRate, m.paramCount())
	return m
}

// initWeights draws He-initialized weights (for relu layers), layer
// by layer in row-major order, and zeroes the biases.
func (m *neuralNet) initWeights() {
	for _, layer := range m.layers {
		in, out := layer.w.Rows(), layer.w.Cols()
		scale := math.Sqrt(2 / float64(in))
		for i := 0; i < in; i++ {
			for j := 0; j < out; j++ {
				layer.w.Set(i, j, m.src.Normal(0, scale))
			}
		}
		for j := range layer.b {
			layer.b[j] = 0
		}
	}
}

func (m *neuralNet) paramCount() int {
	n := 0
	for _, l := range m.layers {
		n += l.w.Rows()*l.w.Cols() + len(l.b)
	}
	return n
}

// Fit trains for the configured epochs with a validation split.
func (m *neuralNet) Fit(v dataset.View) error {
	if err := checkView(v, m.spec.InputDim); err != nil {
		return err
	}
	train := trainSplit(v, m.spec.ValidationSplit, m.src)
	m.stats.observe(train)
	for epoch := 0; epoch < m.spec.Epochs; epoch++ {
		if err := m.runEpoch(context.Background(), train); err != nil {
			return err
		}
	}
	return nil
}

// PartialFit continues training on a batch without resetting weights.
func (m *neuralNet) PartialFit(ctx context.Context, v dataset.View, epochs int) error {
	if err := checkView(v, m.spec.InputDim); err != nil {
		return err
	}
	if epochs < 1 {
		return fmt.Errorf("ml: partial fit epochs %d < 1", epochs)
	}
	m.stats.observe(v)
	for e := 0; e < epochs; e++ {
		if err := m.runEpoch(ctx, v); err != nil {
			return err
		}
	}
	return nil
}

// runEpoch performs one shuffled pass of mini-batch backprop,
// checking ctx before every mini-batch.
func (m *neuralNet) runEpoch(ctx context.Context, v dataset.View) error {
	n := v.Len()
	if cap(m.scratch.perm) < n {
		m.scratch.perm = make([]int, n)
	}
	m.ensureBatchScratch(min(batchSize, n))
	perm := m.src.PermInto(m.scratch.perm[:n])
	for start := 0; start < n; start += batchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.trainBatch(v, perm[start:min(start+batchSize, n)])
	}
	return nil
}

// ensureBatchScratch grows the batch-shaped scratch (input matrix,
// activation and delta backings, targets) to hold nb rows, and the
// flat gradient/parameter vectors. Growth is monotonic, so steady
// state never reallocates.
func (m *neuralNet) ensureBatchScratch(nb int) {
	if cap(m.scratch.input) < nb*m.spec.InputDim {
		m.scratch.input = make([]float64, nb*m.spec.InputDim)
	}
	if m.scratch.actBuf == nil {
		m.scratch.actBuf = make([][]float64, len(m.layers)+1)
		m.scratch.deltaBuf = make([][]float64, len(m.layers)+1)
		m.scratch.acts = make([]matrix.Dense, len(m.layers)+1)
		m.scratch.deltas = make([]matrix.Dense, len(m.layers)+1)
	}
	for l, layer := range m.layers {
		w := nb * layer.w.Cols() // layer l's output is width l+1
		if cap(m.scratch.actBuf[l+1]) < w {
			m.scratch.actBuf[l+1] = make([]float64, w)
		}
		if cap(m.scratch.deltaBuf[l+1]) < w {
			m.scratch.deltaBuf[l+1] = make([]float64, w)
		}
	}
	if cap(m.scratch.target) < nb {
		m.scratch.target = make([]float64, nb)
	}
	if m.scratch.grad == nil {
		m.scratch.grad = make([]float64, m.paramCount())
		m.scratch.params = make([]float64, m.paramCount())
	}
}

// trainBatch runs forward + backward on one mini-batch and applies
// the optimizer step. All matrices are the model's scratch headers
// over its scratch backings, so a mini-batch allocates nothing; the
// arithmetic (and therefore the result) is bit-exact with the
// historical allocate-per-batch implementation.
func (m *neuralNet) trainBatch(v dataset.View, batch []int) {
	n := len(batch)
	target := m.scratch.target[:n]
	for i, idx := range batch {
		target[i] = m.stats.normY(v.Target(idx))
	}
	acts := m.scratch.acts
	m.forwardBatch(v, batch, 0, n)

	// Output delta: dL/dz = 2(pred - target)/n for MSE.
	out := &acts[len(m.layers)]
	delta := m.scratch.deltas[len(m.layers)].SetData(n, 1, m.scratch.deltaBuf[len(m.layers)][:n])
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		delta.Set(i, 0, 2*(out.At(i, 0)-target[i])*invN)
	}

	// Backward pass accumulating a flat gradient. The per-layer
	// weight and bias gradients are computed directly into their
	// segments of the flat vector (the Into kernels zero their
	// destination first), so no separate zeroing pass is needed.
	grad := m.scratch.grad
	offset := len(grad)
	for l := len(m.layers) - 1; l >= 0; l-- {
		layer := m.layers[l]
		wRows, wCols := layer.w.Rows(), layer.w.Cols()
		offset -= wRows*wCols + wCols

		// Gradient wrt weights: actsᵀ · delta.
		gw := m.scratch.gw.SetData(wRows, wCols, grad[offset:offset+wRows*wCols])
		matrix.MulTransAInto(gw, &acts[l], delta)
		// Gradient wrt biases: column sums of delta.
		delta.ColSumsInto(grad[offset+wRows*wCols : offset+wRows*wCols+wCols])

		if l > 0 {
			// Propagate: delta_prev = (delta · wᵀ) ⊙ relu'(acts[l]),
			// with relu' read off the activation output.
			next := m.scratch.deltas[l].SetData(n, wRows, m.scratch.deltaBuf[l][:n*wRows])
			matrix.MulTransBInto(next, delta, layer.w)
			prevAct := &acts[l]
			for i := 0; i < next.Rows(); i++ {
				row := next.Row(i)
				actRow := prevAct.Row(i)
				for j := range row {
					row[j] *= reluGrad(actRow[j])
				}
			}
			delta = next
		}
	}

	clipGradient(grad, 50)
	params := m.flattenParamsInto(m.scratch.params)
	m.opt.step(params, grad)
	m.loadParams(params)
}

// forwardBatch runs the matrix forward pass over n rows of v — rows
// batch[0:n] when batch is non-nil, else rows start..start+n — through
// the model's scratch, keeping every layer's output in acts. Each
// output row depends on its input row only.
func (m *neuralNet) forwardBatch(v dataset.View, batch []int, start, n int) {
	d, t := m.spec.InputDim, v.TargetIndex()
	acts := m.scratch.acts
	input := acts[0].SetData(n, d, m.scratch.input[:n*d])
	for i := range n {
		idx := start + i
		if batch != nil {
			idx = batch[i]
		}
		m.stats.normX(input.Row(i), v.Row(idx), t)
	}
	for l, layer := range m.layers {
		z := acts[l+1].SetData(n, layer.w.Cols(), m.scratch.actBuf[l+1][:n*layer.w.Cols()])
		matrix.MulInto(z, &acts[l], layer.w)
		z.AddRowVector(layer.b)
		if layer.hidden {
			z.Apply(relu)
		}
	}
}

// forward computes the standardized output for one input vector.
func (m *neuralNet) forward(x []float64) float64 {
	cur := make([]float64, len(x))
	m.stats.normX(cur, x, -1)
	for _, layer := range m.layers {
		next := make([]float64, layer.w.Cols())
		for j := range next {
			sum := layer.b[j]
			for i, v := range cur {
				sum += v * layer.w.At(i, j)
			}
			if layer.hidden {
				sum = relu(sum)
			}
			next[j] = sum
		}
		cur = next
	}
	return cur[0]
}

// Predict returns the raw-scale prediction for one input.
func (m *neuralNet) Predict(x []float64) float64 {
	return m.stats.denormY(m.forward(x))
}

// PredictBatch returns raw-scale predictions for every row of v. The
// rows run through the matrix forward pass a mini-batch at a time,
// which amortizes the layer loops far better than per-sample
// prediction and keeps the scratch at one mini-batch.
func (m *neuralNet) PredictBatch(v dataset.View) []float64 {
	if err := checkWidth(v, m.spec.InputDim); err != nil {
		panic(err)
	}
	n := v.Len()
	if n == 0 {
		return nil
	}
	m.ensureBatchScratch(min(batchSize, n))
	out := make([]float64, n)
	for start := 0; start < n; start += batchSize {
		nb := min(batchSize, n-start)
		m.forwardBatch(v, nil, start, nb)
		res := &m.scratch.acts[len(m.layers)]
		for i := range nb {
			out[start+i] = m.stats.denormY(res.At(i, 0))
		}
	}
	return out
}

// flattenParamsInto serializes weights+biases into the given buffer
// (length paramCount) and returns it.
func (m *neuralNet) flattenParamsInto(out []float64) []float64 {
	offset := 0
	for _, l := range m.layers {
		offset += copy(out[offset:], l.w.Data())
		offset += copy(out[offset:], l.b)
	}
	return out
}

// loadParams restores weights+biases from a flat vector.
func (m *neuralNet) loadParams(v []float64) {
	offset := 0
	for _, l := range m.layers {
		n := l.w.Rows() * l.w.Cols()
		copy(l.w.Data(), v[offset:offset+n])
		offset += n
		copy(l.b, v[offset:offset+len(l.b)])
		offset += len(l.b)
	}
}

// Params exports weights, biases and normalization state.
func (m *neuralNet) Params() Params {
	n := m.paramCount()
	values := m.flattenParamsInto(make([]float64, n, n+statsFlatLen(m.spec.InputDim)))
	values = m.stats.appendTo(values)
	return Params{Kind: KindNN, Dims: paramDims(m.spec.InputDim, m.spec.Hidden), Values: values}
}

// SetParams loads an exported snapshot.
func (m *neuralNet) SetParams(p Params) error {
	if err := m.spec.checkParams(p); err != nil {
		return err
	}
	n := m.paramCount()
	m.loadParams(p.Values[:n])
	m.stats.unflatten(p.Values[n:])
	m.opt.reset()
	return nil
}

// Reinit re-seeds and re-initializes the model in place (see Model).
// Weight matrices, bias vectors, scratch and the generator are reused;
// the RNG draws are Spec.New's, so the state is bit-exact with a fresh
// construction.
func (m *neuralNet) Reinit(seed uint64, params Params) error {
	m.src.Reseed(seed)
	m.initWeights()
	m.stats.reset()
	m.opt.reset()
	if len(params.Values) > 0 {
		return m.SetParams(params)
	}
	return nil
}

// relu is the hidden-layer nonlinearity (Table III).
func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// reluGrad is relu's derivative given its output y = relu(z), which
// lets backprop work from the stored activations alone.
func reluGrad(y float64) float64 {
	if y > 0 {
		return 1
	}
	return 0
}
