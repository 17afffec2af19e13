package federation

import (
	"context"
	"sync"
	"time"

	"qens/internal/ml"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// RoundRequest describes one training round over an explicit
// participant list: selection already happened and the model seed is
// already drawn, so a round is the same step whether the caller is
// Leader.Execute or a regional leader driving its shard for the root
// coordinator.
type RoundRequest struct {
	// Spec is the model spec shipped to every participant.
	Spec ml.Spec
	// Params is the global model the round starts from.
	Params ml.Params
	// Participants are trained in this order; outcomes come back in
	// the same order.
	Participants []selection.Participant
	// LocalEpochs is the paper's E; values below 1 use the leader's
	// configured default.
	LocalEpochs int
	// Round is the communication-round index (0 for the paper's
	// single round), stamped on the train spans.
	Round int
	// Concurrent trains every participant at once — the region tier's
	// mode, where each node sits on its own hardware behind TCP.
	// Otherwise participants train one after another on the caller's
	// goroutine; ctx is checked before each and the round stops at the
	// first failure unless Config.TolerateFailures is set.
	Concurrent bool
	// Parent, when non-nil, gets one "train" child span per
	// participant, with the node's own phase spans re-parented under
	// it. A round driven on behalf of a remote trace sets
	// TraceID/SpanID instead: they propagate to the nodes and the node
	// spans stay on the outcomes for the remote owner to re-parent.
	Parent          *telemetry.SpanHandle
	TraceID, SpanID telemetry.ID
}

// RoundOutcome is one participant's outcome from Leader.Round: the raw
// training response plus the leader-observed wall time and the failure
// (nil on success).
type RoundOutcome struct {
	NodeID  string
	Resp    TrainResponse
	Elapsed time.Duration
	Err     error
}

// Round drives one training round and returns one outcome per
// participant, in participant order. It is the only place the leader
// calls Client.Train: every outcome, as it completes, closes its train
// span, feeds the qens_leader_train_round* metrics and the per-node
// health EWMAs, and — on success — signals the node's echoed
// advertisement epoch to the registry, so drift is noticed even when
// a later participant fails the query.
//
// A sequential round can end early. It returns nil when ctx was done
// before a participant could start (the caller reports ctx.Err()), and
// without Config.TolerateFailures it returns the outcomes up to and
// including the first failure.
func (l *Leader) Round(ctx context.Context, req RoundRequest) []RoundOutcome {
	if req.LocalEpochs < 1 {
		req.LocalEpochs = l.cfg.LocalEpochs
	}
	outs := make([]RoundOutcome, len(req.Participants))
	if req.Concurrent {
		l.fanOut(ctx, req, outs)
		return outs
	}
	for i, p := range req.Participants {
		if ctx.Err() != nil {
			return nil
		}
		outs[i] = l.trainOne(ctx, &req, p)
		if outs[i].Err != nil && !l.cfg.TolerateFailures {
			return outs[:i+1]
		}
	}
	return outs
}

// fanOut is the concurrent round. It is a function of its own so that
// the request its goroutines share moves to the heap here, not in the
// sequential Round.
func (l *Leader) fanOut(ctx context.Context, req RoundRequest, outs []RoundOutcome) {
	var wg sync.WaitGroup
	for i, p := range req.Participants {
		wg.Add(1)
		go func(i int, p selection.Participant) {
			defer wg.Done()
			outs[i] = l.trainOne(ctx, &req, p)
		}(i, p)
	}
	wg.Wait()
}

// trainOne runs and records one participant's share of a round.
func (l *Leader) trainOne(ctx context.Context, req *RoundRequest, p selection.Participant) RoundOutcome {
	tspan := startTrainSpan(req.Parent, p.NodeID, req.Round)
	traceID, spanID := req.TraceID, req.SpanID
	if tspan != nil {
		traceID, spanID = tspan.Trace(), tspan.Span()
	}
	o := RoundOutcome{NodeID: p.NodeID}
	start := time.Now()
	c, err := l.client(p.NodeID)
	if err == nil {
		o.Resp, err = c.Train(ctx, TrainRequest{
			Spec:        req.Spec,
			Params:      req.Params,
			Clusters:    p.Clusters,
			LocalEpochs: req.LocalEpochs,
			TraceID:     traceID,
			SpanID:      spanID,
		})
	}
	o.Elapsed, o.Err = time.Since(start), err
	RecordRemoteSpans(l.activeTracer(), tspan, p.NodeID, o.Resp.Spans)
	tspan.End(err)

	node := telemetry.Label{Key: "node", Value: p.NodeID}
	l.metrics.Counter("qens_leader_train_rounds_total", node).Inc()
	l.metrics.Histogram("qens_leader_train_round_ms", node).ObserveDuration(o.Elapsed)
	if err != nil {
		l.health.ObserveRound(p.NodeID, o.Elapsed, err.Error())
		return o
	}
	l.health.ObserveRound(p.NodeID, o.Elapsed, "")
	l.reg.SignalNodeEpoch(p.NodeID, o.Resp.SummaryEpoch)
	return o
}
