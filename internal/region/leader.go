package region

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qens/internal/federation"
)

// Leader is a regional leader: the Service implementation that owns
// one spatial shard of the fleet through an embedded federation.Leader
// (its own registry snapshot, planner and health tracker). It computes
// shard-local rankings and drives shard-local training rounds on
// behalf of the root coordinator; selection, model-seed draws and
// aggregation stay at the root.
type Leader struct {
	id     string
	fed    *federation.Leader
	roster map[string]int // node id -> global roster index
}

// NewLeader wraps a federation.Leader over one shard. rosterIndex maps
// every shard member to its position in the global fleet roster (see
// NodeInfo); all members must be covered.
func NewLeader(id string, fed *federation.Leader, rosterIndex map[string]int) (*Leader, error) {
	if id == "" {
		return nil, errors.New("region: empty region id")
	}
	if fed == nil {
		return nil, errors.New("region: nil federation leader")
	}
	roster := make(map[string]int, len(rosterIndex))
	for _, nodeID := range fed.NodeIDs() {
		idx, ok := rosterIndex[nodeID]
		if !ok {
			return nil, fmt.Errorf("region %s: node %s has no global roster index", id, nodeID)
		}
		roster[nodeID] = idx
	}
	return &Leader{id: id, fed: fed, roster: roster}, nil
}

// ID returns the region identifier.
func (l *Leader) ID() string { return l.id }

// Info implements Service: membership with global roster indices, the
// shard covering rectangle, and the registry epoch — all derived from
// one snapshot, so a concurrent refresh can never produce a torn view.
func (l *Leader) Info(ctx context.Context) (Info, error) {
	snap, err := l.fed.Registry().Snapshot(ctx)
	if err != nil {
		return Info{}, fmt.Errorf("region %s: %w", l.id, err)
	}
	info := Info{
		RegionID:     l.id,
		Epoch:        snap.Epoch,
		Dims:         snap.Dims,
		TotalSamples: snap.TotalSamples,
		Nodes:        make([]NodeInfo, 0, len(snap.Nodes)),
	}
	bound := snap.NodeBounds[0].Clone()
	for i, g := range snap.Nodes {
		info.Nodes = append(info.Nodes, NodeInfo{NodeID: g.NodeID, RosterIndex: l.roster[g.NodeID]})
		if i > 0 {
			bound = bound.Union(snap.NodeBounds[i])
		}
	}
	info.Bounds = bound
	return info, nil
}

// Plan implements Service: the shard's Eq. 2–4 ranking at the
// requested ε, computed by the same planner kernel the single-leader
// path runs, with rows that own their memory (wire-safe). Requests
// flagged QueryDriven take the R-tree-pruned kernel: identical ranks,
// but provably-zero nodes skip the per-dimension overlap vectors.
func (l *Leader) Plan(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	ranks, epoch, err := l.fed.Planner().Rank(ctx, req.Query, req.Epsilon, req.QueryDriven)
	if err != nil {
		return PlanResponse{}, fmt.Errorf("region %s: %w", l.id, err)
	}
	return PlanResponse{RegionID: l.id, Epoch: epoch, Ranks: ranks}, nil
}

// Train implements Service: one concurrent training round over the
// requested shard members. Failures are reported per participant; the
// root decides whether they abort the query. The response epoch is the
// region's reuse epoch after the round, so root-side caches fence
// immediately when a node's echoed advertisement version revealed
// drift mid-round.
func (l *Leader) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	if len(req.Participants) == 0 {
		return TrainResponse{}, fmt.Errorf("region %s: train round without participants", l.id)
	}
	for _, p := range req.Participants {
		if _, ok := l.roster[p.NodeID]; !ok {
			return TrainResponse{}, fmt.Errorf("region %s: participant %s is not a shard member", l.id, p.NodeID)
		}
	}
	start := time.Now()
	outs := l.fed.Round(ctx, federation.RoundRequest{
		Spec:         req.Spec,
		Params:       req.Params,
		Participants: req.Participants,
		LocalEpochs:  req.LocalEpochs,
		Concurrent:   true,
		TraceID:      req.TraceID,
		SpanID:       req.SpanID,
	})
	resp := TrainResponse{
		RegionID: l.id,
		Results:  make([]RoundResult, 0, len(outs)),
		Epoch:    l.fed.Registry().ReuseEpoch(),
	}
	for _, o := range outs {
		rr := RoundResult{NodeID: o.NodeID, ElapsedNS: int64(o.Elapsed)}
		if o.Err != nil {
			rr.Err = o.Err.Error()
		} else {
			rr.Params = o.Resp.Params
			rr.SamplesUsed = o.Resp.SamplesUsed
			rr.TotalSamples = o.Resp.TotalSamples
			rr.TrainTime = o.Resp.TrainTime
			rr.Spans = o.Resp.Spans
		}
		resp.Results = append(resp.Results, rr)
	}
	if req.TraceID != 0 {
		resp.Spans = []federation.NodeSpan{{
			Name:        "region.train",
			StartUnixNS: start.UnixNano(),
			DurationNS:  int64(time.Since(start)),
		}}
	}
	return resp, nil
}

// Stats implements Service: the shard's Info plus its leader's
// registry counters and per-node health report.
func (l *Leader) Stats(ctx context.Context) (Stats, error) {
	info, err := l.Info(ctx)
	if err != nil {
		return Stats{}, err
	}
	st, health := l.fed.HealthReport(nil)
	return Stats{Info: info, Registry: st, Health: health}, nil
}
