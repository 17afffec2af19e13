// Package region implements the hierarchical multi-leader federation
// tier: the fleet is partitioned into spatial shards, each owned by a
// regional leader (a federation.Leader over that shard with its own
// registry snapshot and planner), and a root coordinator (Router)
// that routes each query rectangle to the overlapping regions, fans
// the plan and training rounds out, and aggregates the cross-region
// results with the paper's Eq. 6/7 averaging.
//
// The split of responsibilities keeps the paper's mathematics exactly
// where it was: regional leaders compute the Eq. 2–4 ranking over
// their shard (the same arena kernel the single-leader path runs) and
// drive node training rounds; the root merges the per-region rankings
// into one global candidate set, applies the selection policy, draws
// the model seed, and builds the ensemble — so a sharded topology
// produces bit-identical rankings, participants and aggregated models
// to a single leader over the same fleet.
//
// Everything is epoch-fenced per shard: each region's responses carry
// its registry epoch, the root revalidates its routing topology and
// reuse cache against the latest observed epochs, and a node
// requantizing inside one shard invalidates only that region's
// snapshot and the root-side entries that touched it.
package region

import (
	"context"
	"time"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/selection"
	"qens/internal/telemetry"

	"qens/internal/fleet"
)

// NodeInfo identifies one member node of a region together with its
// position in the global fleet roster. The root sorts merged rankings
// by RosterIndex so cross-region candidate sets preserve the exact
// node order a single leader would see — all-nodes, which picks in
// roster order, and the order-sensitive ensemble summation depend on it.
type NodeInfo struct {
	NodeID      string `json:"node_id"`
	RosterIndex int    `json:"roster_index"`
}

// Info is a region's self-description: membership, covering rectangle
// (the union of every member's advertised cluster bounds — what the
// root's routing R-tree indexes) and the registry epoch it derives
// from.
type Info struct {
	RegionID string        `json:"region_id"`
	Nodes    []NodeInfo    `json:"nodes"`
	Epoch    uint64        `json:"epoch"`
	Bounds   geometry.Rect `json:"bounds"`
	Dims     int           `json:"dims"`
	// TotalSamples is the shard-wide Σ|D_i|.
	TotalSamples int `json:"total_samples"`
}

func (i Info) nodeIDs() []string {
	ids := make([]string, len(i.Nodes))
	for k, n := range i.Nodes {
		ids[k] = n.NodeID
	}
	return ids
}

// PlanRequest asks a region to rank its shard for one query at ε.
// QueryDriven marks the ranking as feeding a stateless Eq. 2–4
// selector, which lets the region take the R-tree-pruned fast path:
// nodes whose covering rectangles provably score zero come back as
// zero-rank rows without per-dimension overlap vectors. Selectors
// that inspect Overlaps (or replay at a different ε) must leave it
// false to get full-fidelity rows.
type PlanRequest struct {
	Query       query.Query
	Epsilon     float64
	QueryDriven bool
}

// PlanResponse carries the shard's Eq. 2–4 ranking rows and the
// registry epoch they were computed against.
type PlanResponse struct {
	RegionID string
	Epoch    uint64
	Ranks    []selection.NodeRank
}

// TrainRequest asks a region to run one training round for the listed
// participants (all members of its shard) with the root-supplied model
// spec — seed already drawn at the root — and initial parameters.
type TrainRequest struct {
	Spec         ml.Spec
	Params       ml.Params
	Participants []selection.Participant
	LocalEpochs  int
	// TraceID/SpanID attribute the round to the root query's trace;
	// node and region phase spans come back on the response for
	// re-parenting at the root.
	TraceID telemetry.ID
	SpanID  telemetry.ID
}

// RoundResult is one participant's outcome within a region round.
type RoundResult struct {
	NodeID string
	Params ml.Params
	// SamplesUsed / TotalSamples mirror federation.TrainResponse.
	SamplesUsed  int
	TotalSamples int
	// TrainTime is the node-reported training duration.
	TrainTime time.Duration
	// ElapsedNS is the region-leader-observed round wall time.
	ElapsedNS int64
	// Err is the failure reason ("" on success).
	Err string
	// Spans are the node-side phase spans when the request carried a
	// trace context.
	Spans []federation.NodeSpan
}

// TrainResponse carries every participant's outcome in request order.
type TrainResponse struct {
	RegionID string
	Results  []RoundResult
	// Epoch is the region's reuse epoch after the round: when a node
	// echoed a newer advertisement version mid-round, this is already
	// advanced past the epoch the round planned against, so the root
	// fences its caches without waiting for the region to replan.
	Epoch uint64
	// Spans are region-leader phase spans ("region.train") when the
	// request carried a trace context.
	Spans []federation.NodeSpan
}

// Stats is a region's introspection report, merged into the root
// gateway's /v1/stats and /v1/fleet.
type Stats struct {
	Info     Info               `json:"info"`
	Registry registry.Stats     `json:"registry"`
	Health   []fleet.NodeHealth `json:"health"`
}

// Description is a serving topology's part of the gateway's /v1/stats:
// roster, global data space, and a single leader's registry counters
// or the root router's routing view.
type Description struct {
	Nodes    []string        `json:"nodes"`
	Space    *geometry.Rect  `json:"space,omitempty"`
	Registry *registry.Stats `json:"registry,omitempty"`
	Router   *RouterStats    `json:"router,omitempty"`
}

// FleetReport is the gateway's /v1/fleet document.
type FleetReport struct {
	Nodes []fleet.NodeHealth `json:"nodes"`
	// RegistryEpoch/RegistryStale mirror a single leader's summary
	// registry at report time.
	RegistryEpoch uint64 `json:"registry_epoch"`
	RegistryStale bool   `json:"registry_stale"`
	// Regions carries per-region shard membership and health under the
	// root router; Nodes is then the concatenation across regions.
	Regions []RegionFleet `json:"regions,omitempty"`
}

// RegionFleet is one region's block of a FleetReport.
type RegionFleet struct {
	RegionID      string             `json:"region_id"`
	Nodes         []fleet.NodeHealth `json:"nodes"`
	NodeIDs       []string           `json:"node_ids"`
	RegistryEpoch uint64             `json:"registry_epoch"`
	RegistryStale bool               `json:"registry_stale"`
	TotalSamples  int                `json:"total_samples"`
}

// Service is the regional-leader RPC surface the root coordinator
// drives. The in-process implementation is *Leader; the cross-process
// one is transport.RegionClient over the multiplexed v2 wire.
type Service interface {
	// ID returns the region identifier without an RPC.
	ID() string
	// Info describes the region's membership and covering rectangle.
	Info(ctx context.Context) (Info, error)
	// Plan ranks the shard for one query.
	Plan(ctx context.Context, req PlanRequest) (PlanResponse, error)
	// Train runs one training round over shard members.
	Train(ctx context.Context, req TrainRequest) (TrainResponse, error)
	// Stats reports the region's registry and fleet-health state.
	Stats(ctx context.Context) (Stats, error)
}
