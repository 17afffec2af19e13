package federation

import (
	"fmt"
	"math"

	"qens/internal/ml"
	"qens/internal/telemetry"
)

// Assembly parameterizes Assemble for one round.
type Assembly struct {
	// Spec is the architecture the aggregated predictor is built with.
	Spec ml.Spec
	// Initial is the global model the round started from.
	Initial ml.Params
	// Round is the communication-round index stamped on NodeRounds.
	Round int
	// TolerateFailures keeps failed participants out of the aggregate
	// (recording them in Result.Failed) instead of failing the query,
	// as long as one participant succeeded.
	TolerateFailures bool
	// FedAvg replaces the prediction-space ensemble with the
	// rank-weighted parameter average of the round's local models
	// (Result.GlobalParams) — the multi-round mode, where that average
	// is re-distributed as the next round's Initial.
	FedAvg bool
	// Span, when non-nil, parents the "aggregation" span.
	Span *telemetry.SpanHandle
}

// Assemble folds one round's outcomes — outs[i] belongs to
// res.Participants[i] — into res and builds the aggregated predictor
// over the survivors. It is the one collect-and-aggregate step behind
// both topologies: the single leader calls it after each Round, the
// root coordinator after scattering the regions' outcomes back into
// global participant order.
//
// res arrives with its query-scoped fields set (Query, Epoch, Selector,
// Aggregation, Participants, Stats.SamplesAllNodes). NodeRounds, Failed
// and the Stats counters accumulate across calls; LocalParams and the
// Ensemble describe the latest round. A failed outcome fails the query
// unless a.TolerateFailures is set, and a round nobody survived always
// does.
func Assemble(res *Result, outs []RoundOutcome, a Assembly) error {
	paramBytes := int64(8 * len(a.Initial.Values))
	res.LocalParams = make([]ml.Params, 0, len(outs))
	ranks := make([]float64, 0, len(outs))
	for i := range outs {
		o, p := &outs[i], res.Participants[i]
		round := NodeRound{NodeID: p.NodeID, Round: a.Round, Elapsed: o.Elapsed}
		if o.Err != nil {
			if !a.TolerateFailures {
				if a.FedAvg {
					return fmt.Errorf("federation: round %d on %s: %w", a.Round, p.NodeID, o.Err)
				}
				return fmt.Errorf("federation: training on %s: %w", p.NodeID, o.Err)
			}
			round.Err = o.Err.Error()
			res.NodeRounds = append(res.NodeRounds, round)
			res.Failed = append(res.Failed, p.NodeID)
			continue
		}
		res.NodeRounds = append(res.NodeRounds, round)
		res.LocalParams = append(res.LocalParams, o.Resp.Params)
		ranks = append(ranks, p.Rank)
		res.Stats.TrainTime += o.Resp.TrainTime
		res.Stats.SamplesUsed += o.Resp.SamplesUsed
		if a.Round == 0 {
			res.Stats.SamplesSelectedNodes += o.Resp.TotalSamples
		}
		res.Stats.BytesUp += paramBytes
		res.Stats.BytesDown += int64(8 * len(o.Resp.Params.Values))
	}
	if len(res.LocalParams) == 0 {
		return fmt.Errorf("federation: every selected participant failed for %s", res.Query.ID)
	}

	aggSpan := a.Span.Child("aggregation")
	err := res.aggregate(a, ranks)
	aggSpan.End(err)
	return err
}

// aggregate builds res.Ensemble from the round's surviving local
// models: Eq. 6/7 prediction averaging, or in FedAvg mode the single
// parameter-averaged global model.
func (res *Result) aggregate(a Assembly, ranks []float64) (err error) {
	if !a.FedAvg {
		res.Ensemble, err = NewEnsemble(a.Spec, res.LocalParams, ranks, res.Aggregation)
		return err
	}
	global, err := FedAvgParams(res.LocalParams, ranks)
	if err != nil {
		return fmt.Errorf("federation: round %d aggregation: %w", a.Round, err)
	}
	delta := 0.0
	for i, v := range a.Initial.Values {
		d := v - global.Values[i]
		delta += d * d
	}
	res.RoundDeltas = append(res.RoundDeltas, math.Sqrt(delta))
	res.GlobalParams = global
	res.Ensemble, err = NewEnsemble(a.Spec, []ml.Params{global}, []float64{1}, ModelAveraging)
	return err
}
