// Package ml is the machine-learning substrate replacing the paper's
// Keras usage: the two Table III models — linear regression trained
// with SGD and a dense relu network trained with Adam, both in
// mini-batches under MSE loss with a held-out validation split — plus
// regression metrics.
//
// Models train and batch-predict on a dataset.View, reading each row
// in place from the dataset's one row store and skipping its target
// column, so no sample is copied on the way in. They train
// incrementally (PartialFit) so that a node can feed each supporting
// cluster's view as a mini-batch in turn, exactly the incremental
// per-cluster training loop of §IV-B, and their parameters serialize
// to flat vectors so local models can travel to the leader.
package ml

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"qens/internal/dataset"
	"qens/internal/rng"
)

// Model is a trainable regression model.
//
// Every train and batch-predict method takes a dataset.View whose
// feature count is the spec's InputDim; only Predict takes a feature
// vector. A Model is not safe for concurrent use: training and batch
// prediction reuse per-model scratch buffers (gradients, activations,
// permutations) across calls, which is what keeps the training inner
// loop allocation-free. The node-side engine (internal/engine) hands
// each in-flight request its own pooled model instance.
type Model interface {
	// Fit trains from scratch for the spec's configured number of
	// epochs on the part of v the spec's validation split leaves.
	Fit(v dataset.View) error
	// PartialFit continues training on a batch for the given number
	// of local epochs without resetting parameters — the paper's
	// per-cluster incremental step (each supporting cluster is a
	// mini-batch, §IV-A Remark). ctx is checked at every mini-batch
	// boundary, so a slow fit stops consuming compute shortly after
	// its deadline expires instead of outliving it.
	PartialFit(ctx context.Context, v dataset.View, epochs int) error
	// Predict returns the model output for a single feature vector.
	Predict(x []float64) float64
	// PredictBatch returns the outputs for every row of v, in order.
	PredictBatch(v dataset.View) []float64
	// Params exports the parameters for transport or aggregation.
	Params() Params
	// SetParams loads previously exported parameters.
	SetParams(Params) error
	// Reinit re-seeds and re-initializes the model in place, as if
	// freshly constructed by Spec.New with the given seed, then
	// loads params when non-empty. Weight, scratch and generator
	// storage is reused — this is the model pool's arena-reuse hook
	// (internal/engine). The resulting state is bit-exact with a
	// fresh construction: the same RNG draws happen in the same
	// order.
	Reinit(seed uint64, params Params) error
}

// Params is a flat, serializable snapshot of model parameters.
type Params struct {
	Kind   string    `json:"kind"`
	Dims   []int     `json:"dims"` // architecture fingerprint for compatibility checks
	Values []float64 `json:"values"`
}

// Compatible reports whether two parameter snapshots describe the same
// architecture.
func (p Params) Compatible(other Params) bool {
	if p.Kind != other.Kind || len(p.Dims) != len(other.Dims) || len(p.Values) != len(other.Values) {
		return false
	}
	for i, d := range p.Dims {
		if other.Dims[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the snapshot.
func (p Params) Clone() Params {
	return Params{
		Kind:   p.Kind,
		Dims:   append([]int(nil), p.Dims...),
		Values: append([]float64(nil), p.Values...),
	}
}

// Spec describes a model architecture and its training
// hyper-parameters; it is the factory for Model values. LR models
// train with plain SGD and NN models with Adam, both in mini-batches
// of batchSize rows.
type Spec struct {
	// Kind selects the model family: "linear" or "nn".
	Kind string
	// InputDim is the number of features.
	InputDim int
	// Hidden lists hidden-layer widths (nn only).
	Hidden []int
	// LearningRate for gradient descent.
	LearningRate float64
	// Epochs for a full Fit (Table III: 100).
	Epochs int
	// ValidationSplit is the fraction of a Fit's batch held out of
	// training (Table III: 0.2).
	ValidationSplit float64
	// Seed makes weight initialization and batch shuffling
	// deterministic.
	Seed uint64
}

// batchSize is the mini-batch size of every fit and batch prediction:
// Keras's default, as Table III sets none.
const batchSize = 32

// Model kinds.
const (
	KindLinear = "linear"
	KindNN     = "nn"
)

// PaperLR returns the paper's LR hyper-parameters (Table III: one
// dense unit, learning rate 0.03, 100 epochs, validation split 0.2,
// MSE loss) for the given input dimensionality.
func PaperLR(inputDim int) Spec {
	return Spec{
		Kind:            KindLinear,
		InputDim:        inputDim,
		LearningRate:    0.03,
		Epochs:          100,
		ValidationSplit: 0.2,
	}
}

// PaperNN returns the paper's NN hyper-parameters (Table III: 64 dense
// units, relu, learning rate 0.001, 100 epochs, validation split 0.2,
// MSE loss) for the given input dimensionality.
func PaperNN(inputDim int) Spec {
	return Spec{
		Kind:            KindNN,
		InputDim:        inputDim,
		Hidden:          []int{64},
		LearningRate:    0.001,
		Epochs:          100,
		ValidationSplit: 0.2,
	}
}

func (s Spec) withDefaults() Spec {
	if s.Epochs == 0 {
		s.Epochs = 100
	}
	if s.LearningRate == 0 {
		s.LearningRate = 0.01
	}
	return s
}

// Validate checks the specification.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Kind != KindLinear && s.Kind != KindNN {
		return fmt.Errorf("ml: unknown model kind %q", s.Kind)
	}
	if s.InputDim < 1 {
		return fmt.Errorf("ml: input dim %d < 1", s.InputDim)
	}
	if s.Kind == KindNN && len(s.Hidden) == 0 {
		return errors.New("ml: nn spec needs at least one hidden layer")
	}
	for _, h := range s.Hidden {
		if h < 1 {
			return fmt.Errorf("ml: hidden width %d < 1", h)
		}
	}
	if s.LearningRate <= 0 {
		return fmt.Errorf("ml: learning rate %v <= 0", s.LearningRate)
	}
	if s.Epochs < 1 {
		return fmt.Errorf("ml: epochs %d < 1", s.Epochs)
	}
	if s.ValidationSplit < 0 || s.ValidationSplit >= 1 {
		return fmt.Errorf("ml: validation split %v outside [0,1)", s.ValidationSplit)
	}
	return nil
}

// model is a Model that can draw its own initial weights.
type model interface {
	Model
	initWeights()
}

// build allocates a zero-weight model for the spec.
func (s Spec) build() (model, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(s.Seed)
	switch s.Kind {
	case KindLinear:
		return newLinear(s, src), nil
	case KindNN:
		return newNeuralNet(s, src), nil
	}
	return nil, fmt.Errorf("ml: unknown model kind %q", s.Kind)
}

// New instantiates a model from the spec, drawing its initial weights
// from the spec's Seed.
func (s Spec) New() (Model, error) {
	m, err := s.build()
	if err != nil {
		return nil, err
	}
	m.initWeights()
	return m, nil
}

// Load instantiates a model holding p. It predicts exactly as New
// followed by SetParams(p) does, and fails with the same error, but
// draws no initial weights: the model's stream is still at Seed, so
// training a loaded model takes different draws than training the
// New+SetParams one. It is for models that only predict (the
// leader's ensemble members).
func (s Spec) Load(p Params) (Model, error) {
	m, err := s.build()
	if err != nil {
		return nil, err
	}
	if err := m.SetParams(p); err != nil {
		return nil, err
	}
	return m, nil
}

// CheckParams returns the error Load(p) would, without building a
// model.
func (s Spec) CheckParams(p Params) error {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return err
	}
	return s.checkParams(p)
}

// checkParams reports whether p fits a model built from s — what
// Params.Compatible against the model's own export checks, without
// exporting it — with SetParams's error when it does not.
func (s Spec) checkParams(p Params) error {
	hidden := s.Hidden
	if s.Kind == KindLinear {
		hidden = nil
	}
	ok := p.Kind == s.Kind && len(p.Dims) == len(hidden)+2 && p.Dims[0] == s.InputDim && p.Dims[len(hidden)+1] == 1
	for i, h := range hidden {
		ok = ok && p.Dims[i+1] == h
	}
	if ok {
		if n, err := expectedValueCount(p.Kind, p.Dims); err == nil && len(p.Values) == n {
			return nil
		}
	}
	name := "nn"
	if s.Kind == KindLinear {
		name = "linear model"
	}
	return fmt.Errorf("ml: incompatible params (kind %q dims %v) for %s dims %v", p.Kind, p.Dims, name, paramDims(s.InputDim, hidden))
}

// paramDims is the Params.Dims of a model: input, hidden widths, one
// output — the shared slice of that shape (see SharedDims).
func paramDims(in int, hidden []int) []int {
	var buf [8]int
	dims := append(append(append(buf[:0], in), hidden...), 1)
	return SharedDims(dims)
}

// shapes holds one immutable Params.Dims slice per model shape, so the
// Params a model exports and the ones the wire decodes share their dims
// instead of allocating them per round.
var shapes struct {
	sync.Mutex
	all [][]int
}

// maxShapes bounds shapes: a shape past it gets its own copy.
const maxShapes = 64

// SharedDims returns the shared, immutable slice equal to dims (nil for
// an empty one), adding a copy when the shape is new. dims itself is
// never kept, so callers may pass a scratch buffer; nobody may write to
// a Params.Dims.
func SharedDims(dims []int) []int {
	if len(dims) == 0 {
		return nil
	}
	shapes.Lock()
	defer shapes.Unlock()
	for _, s := range shapes.all {
		if slices.Equal(s, dims) {
			return s
		}
	}
	own := slices.Clone(dims)
	if len(shapes.all) < maxShapes {
		shapes.all = append(shapes.all, own)
	}
	return own
}

// MustNew is New that panics on error, for tests and examples.
func (s Spec) MustNew() Model {
	m, err := s.New()
	if err != nil {
		panic(err)
	}
	return m
}

// AppendFingerprint appends a stable identity for the model
// architecture and training hyper-parameters, every field but Seed, to
// dst: two specs with equal fingerprints produce interchangeable model
// instances up to re-seeding. The node-side model pool
// (internal/engine) keys its arenas on it, from a stack buffer so the
// map lookup does not allocate.
func (s Spec) AppendFingerprint(dst []byte) []byte {
	s = s.withDefaults()
	dst = append(dst, s.Kind...)
	dst = strconv.AppendInt(append(dst, "|in="...), int64(s.InputDim), 10)
	dst = append(dst, "|h=["...)
	for i, h := range s.Hidden {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(h), 10)
	}
	dst = strconv.AppendFloat(append(dst, "]|lr="...), s.LearningRate, 'g', -1, 64)
	dst = strconv.AppendInt(append(dst, "|ep="...), int64(s.Epochs), 10)
	return strconv.AppendFloat(append(dst, "|vs="...), s.ValidationSplit, 'g', -1, 64)
}

// checkView validates a training batch against the expected input
// dimensionality.
func checkView(v dataset.View, inputDim int) error {
	if v.Len() == 0 {
		return errors.New("ml: empty training batch")
	}
	return checkWidth(v, inputDim)
}

// checkWidth reports a view whose feature count is not inputDim.
func checkWidth(v dataset.View, inputDim int) error {
	if v.FeatureDims() != inputDim {
		return fmt.Errorf("ml: view has %d features, want %d", v.FeatureDims(), inputDim)
	}
	return nil
}

// trainSplit returns the training part of a shuffle of the batch: the
// first fraction of the permutation is held out, the rest trains,
// matching Keras's validation_split semantics.
func trainSplit(v dataset.View, fraction float64, src *rng.Source) dataset.View {
	n := v.Len()
	perm := src.Perm(n)
	nVal := int(fraction * float64(n))
	if nVal >= n {
		nVal = n - 1
	}
	return v.Select(perm[nVal:])
}

// Loss returns m's mean squared error over the rows of v — the
// paper's loss metric, summed over the rows in order as MSE sums it.
// An empty view scores 0.
func Loss(m Model, v dataset.View) float64 {
	pred := m.PredictBatch(v)
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i, p := range pred {
		d := v.Target(i) - p
		s += d * d
	}
	return s / float64(len(pred))
}

// expectedValueCount computes the flat length implied by an
// architecture fingerprint: weights + biases per layer, plus the
// streaming-normalization state (statsFlatLen over the input dim).
func expectedValueCount(kind string, dims []int) (int, error) {
	switch kind {
	case KindLinear:
		if len(dims) != 2 || dims[1] != 1 {
			return 0, fmt.Errorf("ml: linear params must have dims [in 1], got %v", dims)
		}
		return dims[0] + 1 + statsFlatLen(dims[0]), nil
	case KindNN:
		n := 0
		for l := 0; l+1 < len(dims); l++ {
			n += dims[l]*dims[l+1] + dims[l+1]
		}
		return n + statsFlatLen(dims[0]), nil
	default:
		return 0, fmt.Errorf("ml: unknown params kind %q", kind)
	}
}
