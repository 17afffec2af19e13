package gateway

import (
	"context"

	"qens/internal/federation"
	"qens/internal/fleet"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Serving is the topology behind the gateway: *region.Router, the root
// over regional leaders, or a single leader (leaderServing). Every
// endpoint goes through it, so the server never asks which one it has.
type Serving interface {
	// Executor runs admitted queries, and CacheOnly ones.
	Executor
	// Prepare runs the selection stage without training. The outcome
	// rides on the admitted request: its Key is the coalescing
	// fingerprint, and Execute trains from it while its basis holds.
	Prepare(ctx context.Context, q query.Query, sel selection.Selector) (*federation.Prepared, error)
	// ExplainQuery plans without training and keeps the full ranking.
	ExplainQuery(ctx context.Context, q query.Query, sel selection.Selector) (*federation.Explanation, error)
	// Dims is the fleet's feature-space dimensionality.
	Dims(ctx context.Context) (int, error)
	// Describe is the topology's part of /v1/stats; what cannot be
	// resolved is left empty.
	Describe(ctx context.Context) region.Description
	// Health is the topology's part of /healthz, non-nil. It must not
	// outlast ctx.
	Health(ctx context.Context) map[string]any
	// Fleet is the /v1/fleet document.
	Fleet(ctx context.Context) (region.FleetReport, error)
	SetTracer(t *telemetry.Tracer)
	// StopPush gates summary push delivery off ahead of teardown.
	StopPush()
}

// leaderServing serves a single-leader fleet. Execute, Prepare,
// ExplainQuery, Dims, SetTracer and StopPush are the leader's own.
type leaderServing struct {
	*federation.Leader
	wire func() []fleet.WireStatus // ServerConfig.WireStatus
}

func (l leaderServing) Describe(ctx context.Context) region.Description {
	d := region.Description{Nodes: l.NodeIDs()}
	if space, err := l.Space(ctx); err == nil {
		d.Space = &space
	}
	st := l.Registry().Stats()
	d.Registry = &st
	return d
}

// Health reports the roster size and the summary freshness mode: how
// many participants push their advertisements (the rest are pull-only),
// with the registry's applied/dropped push accounting alongside.
func (l leaderServing) Health(context.Context) map[string]any {
	st := l.Registry().Stats()
	mode := "pull"
	if l.PushSubscribed() > 0 {
		mode = "push"
	}
	return map[string]any{
		"nodes":              len(l.NodeIDs()),
		"push_subscribed":    l.PushSubscribed(),
		"summary_mode":       mode,
		"push_applied":       st.PushApplied,
		"push_dropped_stale": st.PushDroppedStale,
	}
}

func (l leaderServing) Fleet(context.Context) (region.FleetReport, error) {
	var wire []fleet.WireStatus
	if l.wire != nil {
		wire = l.wire()
	}
	st, nodes := l.HealthReport(wire)
	return region.FleetReport{Nodes: nodes, RegistryEpoch: st.Epoch, RegistryStale: st.Stale}, nil
}
