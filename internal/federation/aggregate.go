package federation

import (
	"errors"
	"fmt"
	"sync"

	"qens/internal/ml"
)

// Aggregation selects how the leader combines the local models'
// predictions (§IV-B).
type Aggregation int

const (
	// ModelAveraging is Eq. 6: the unweighted mean of the local
	// models' predictions.
	ModelAveraging Aggregation = iota
	// WeightedAveraging is Eq. 7: predictions weighted by each
	// participant's relative ranking λ_i = r_i / Σ r_k.
	WeightedAveraging
)

// String implements fmt.Stringer.
func (a Aggregation) String() string {
	switch a {
	case ModelAveraging:
		return "averaging"
	case WeightedAveraging:
		return "weighted"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// Ensemble is the leader-side global predictor: the ℓ local models
// plus their aggregation weights. It satisfies the prediction part of
// ml.Model usage (Predict / PredictBatch) without being trainable.
// Members are loaded (ml.Spec.Load) on the first prediction, so a
// query whose answer is never evaluated builds none; it is safe for
// concurrent use.
type Ensemble struct {
	spec    ml.Spec
	params  []ml.Params
	weights []float64
	load    sync.Once
	models  []ml.Model
}

// NewEnsemble builds an ensemble from local model parameters, which it
// retains: the caller must not modify them afterwards. ranks supplies
// the per-participant r_i used by WeightedAveraging; for ModelAveraging
// every model gets weight 1/ℓ regardless of rank.
func NewEnsemble(spec ml.Spec, params []ml.Params, ranks []float64, agg Aggregation) (*Ensemble, error) {
	if len(params) == 0 {
		return nil, errors.New("federation: ensemble needs at least one model")
	}
	if len(ranks) != len(params) {
		return nil, fmt.Errorf("federation: %d ranks for %d models", len(ranks), len(params))
	}
	total := 0.0
	switch agg {
	case ModelAveraging:
	case WeightedAveraging:
		for _, r := range ranks {
			if r < 0 {
				return nil, fmt.Errorf("federation: negative rank %v", r)
			}
			total += r
		}
	default:
		return nil, fmt.Errorf("federation: unknown aggregation %d", agg)
	}
	e := &Ensemble{spec: spec, params: params, weights: make([]float64, len(params))}
	for i := range e.weights {
		if err := spec.CheckParams(params[i]); err != nil {
			return nil, fmt.Errorf("federation: ensemble model %d: %w", i, err)
		}
		if total <= 0 { // plain averaging, which all-zero ranks degrade to
			e.weights[i] = 1 / float64(len(params))
		} else {
			e.weights[i] = ranks[i] / total
		}
	}
	return e, nil
}

// Weights returns the λ_i aggregation weights (a copy).
func (e *Ensemble) Weights() []float64 { return append([]float64(nil), e.weights...) }

// Size returns the number of member models (the paper's ℓ).
func (e *Ensemble) Size() int { return len(e.params) }

// members loads the member models on first use. NewEnsemble checked
// every params snapshot, so Load cannot fail here.
func (e *Ensemble) members() []ml.Model {
	e.load.Do(func() {
		for _, p := range e.params {
			m, err := e.spec.Load(p)
			if err != nil {
				panic(err)
			}
			e.models = append(e.models, m)
		}
	})
	return e.models
}

// Predict returns the aggregated prediction ŷ(q) for one input.
func (e *Ensemble) Predict(x []float64) float64 {
	out := 0.0
	for i, m := range e.members() {
		out += e.weights[i] * m.Predict(x)
	}
	return out
}

// PredictBatch returns aggregated predictions for many inputs.
func (e *Ensemble) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = e.Predict(row)
	}
	return out
}

// FedAvgParams computes a parameter-space weighted average of local
// models (classic FedAvg), provided as an ablation against the paper's
// prediction-space aggregation. Weights are normalized internally;
// all snapshots must be architecture-compatible.
func FedAvgParams(params []ml.Params, weights []float64) (ml.Params, error) {
	if len(params) == 0 {
		return ml.Params{}, errors.New("federation: fedavg needs at least one model")
	}
	if len(weights) != len(params) {
		return ml.Params{}, fmt.Errorf("federation: %d weights for %d models", len(weights), len(params))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return ml.Params{}, fmt.Errorf("federation: negative weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		total = float64(len(params))
		weights = make([]float64, len(params))
		for i := range weights {
			weights[i] = 1
		}
	}
	out := params[0].Clone()
	for i := range out.Values {
		out.Values[i] = 0
	}
	for m, p := range params {
		if !p.Compatible(out) {
			return ml.Params{}, fmt.Errorf("federation: model %d incompatible with model 0", m)
		}
		w := weights[m] / total
		for i, v := range p.Values {
			out.Values[i] += w * v
		}
	}
	return out, nil
}
