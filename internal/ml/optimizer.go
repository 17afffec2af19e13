package ml

import "math"

// newAdam returns an Adam optimizer over size parameters.
func newAdam(lr float64, size int) *adam {
	return &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make([]float64, size), v: make([]float64, size)}
}

// adam is the Adam optimizer (Kingma & Ba 2015), the NN's update rule.
// It works on the flat parameter vector the NN exports.
type adam struct {
	lr, beta1, beta2, eps float64
	m, v                  []float64
	t                     int
}

func (o *adam) step(params, grad []float64) {
	o.t++
	bc1 := 1 - math.Pow(o.beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.beta2, float64(o.t))
	for i, g := range grad {
		o.m[i] = o.beta1*o.m[i] + (1-o.beta1)*g
		o.v[i] = o.beta2*o.v[i] + (1-o.beta2)*g*g
		mHat := o.m[i] / bc1
		vHat := o.v[i] / bc2
		params[i] -= o.lr * mHat / (math.Sqrt(vHat) + o.eps)
	}
}

// reset clears the moment estimates (after Reinit or SetParams
// replaces the weights wholesale).
func (o *adam) reset() {
	o.t = 0
	for i := range o.m {
		o.m[i] = 0
		o.v[i] = 0
	}
}

// clipGradient rescales grad in place if its L2 norm exceeds maxNorm,
// a standard guard against exploding updates on badly conditioned
// mini-batches (tiny clusters with extreme ranges occur routinely in
// the federation experiments).
func clipGradient(grad []float64, maxNorm float64) {
	norm := 0.0
	for _, g := range grad {
		norm += g * g
	}
	norm = math.Sqrt(norm)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for i := range grad {
			grad[i] *= scale
		}
	}
}
