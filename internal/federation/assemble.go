package federation

import (
	"fmt"

	"qens/internal/ml"
	"qens/internal/telemetry"
)

// Assembly parameterizes Assemble for one query's round.
type Assembly struct {
	// Spec is the architecture the aggregated predictor is built with.
	Spec ml.Spec
	// Initial is the global model the round started from.
	Initial ml.Params
	// TolerateFailures keeps failed participants out of the aggregate
	// (recording them in Result.Failed) instead of failing the query,
	// as long as one participant succeeded.
	TolerateFailures bool
	// Span, when non-nil, parents the "aggregation" span.
	Span *telemetry.SpanHandle
}

// Assemble folds the query's round outcomes — outs[i] belongs to
// res.Participants[i] — into res and builds the Eq. 6/7 aggregated
// predictor over the survivors. It is the one collect-and-aggregate
// step behind both topologies: the single leader calls it after its
// Round, the root coordinator after scattering the regions' outcomes
// back into global participant order.
//
// res arrives with its query-scoped fields set (Query, Epoch, Selector,
// Aggregation, Participants, Stats.SamplesAllNodes). A failed outcome
// fails the query unless a.TolerateFailures is set, and a round nobody
// survived always does.
func Assemble(res *Result, outs []RoundOutcome, a Assembly) error {
	paramBytes := int64(8 * len(a.Initial.Values))
	res.LocalParams = make([]ml.Params, 0, len(outs))
	ranks := make([]float64, 0, len(outs))
	for i := range outs {
		o, p := &outs[i], res.Participants[i]
		if o.Err != nil {
			if !a.TolerateFailures {
				return fmt.Errorf("federation: training on %s: %w", p.NodeID, o.Err)
			}
			res.Failed = append(res.Failed, p.NodeID)
			continue
		}
		res.LocalParams = append(res.LocalParams, o.Resp.Params)
		ranks = append(ranks, p.Rank)
		res.Stats.TrainTime += o.Resp.TrainTime
		res.Stats.SamplesUsed += o.Resp.SamplesUsed
		res.Stats.SamplesSelectedNodes += o.Resp.TotalSamples
		res.Stats.BytesUp += paramBytes
		res.Stats.BytesDown += int64(8 * len(o.Resp.Params.Values))
	}
	if len(res.LocalParams) == 0 {
		return fmt.Errorf("federation: every selected participant failed for %s", res.Query.ID)
	}

	aggSpan := a.Span.Child("aggregation")
	var err error
	res.Ensemble, err = NewEnsemble(a.Spec, res.LocalParams, ranks, res.Aggregation)
	aggSpan.End(err)
	return err
}
