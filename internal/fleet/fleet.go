// Package fleet tracks per-node health as observed by a leader: round
// latency and error-rate EWMAs fed from every training/evaluation
// round, combined at report time with summary-epoch staleness from the
// registry and wire-level transport stats into one health score per
// node. The score is the signal plane ROADMAP items 2 (multi-leader
// sharding) and 3 (adaptive allocation) consume: a cheap, always-on
// answer to "which nodes are slow, failing, or advertising stale
// summaries right now".
package fleet

import (
	"sort"
	"sync"
	"time"

	"qens/internal/telemetry"
)

// ewmaAlpha is the smoothing factor for the latency and error-rate
// EWMAs: each new round contributes ~20%, so the horizon is roughly
// the last dozen rounds per node — long enough to ride out one hiccup,
// short enough to react to a degrading node within seconds under load.
const ewmaAlpha = 0.2

// staleFactor multiplies the score of a node whose advertised summary
// epoch is newer than the registry snapshot (the leader is planning on
// stale geometry until the next refresh).
const staleFactor = 0.8

// WireStatus is the transport-level view of one node connection,
// supplied by the serving layer at report time.
type WireStatus struct {
	// NodeID keys the status into the health report (and identifies
	// the connection when the slice is served standalone in /v1/stats).
	NodeID       string `json:"node_id,omitempty"`
	Addr         string `json:"addr,omitempty"`
	InflightRPCs int64  `json:"inflight_rpcs"`
	BytesOut     int64  `json:"bytes_out"`
	BytesIn      int64  `json:"bytes_in"`
}

// Meta is the per-node context merged into a health report: registry
// staleness plus optional wire stats.
type Meta struct {
	// SummaryEpoch is the node's advertisement epoch as recorded by
	// the leader's registry snapshot (0 when unknown).
	SummaryEpoch uint64
	// Stale reports that the node has signalled a newer epoch than
	// the snapshot the leader is currently planning against.
	Stale bool
	// Wire carries transport stats when the node is remote.
	Wire *WireStatus
}

// NodeHealth is one node's scored health report.
type NodeHealth struct {
	NodeID string `json:"node_id"`
	// Score is the composite health in [0, 1]:
	// availability × speed × freshness (see Tracker doc).
	Score float64 `json:"score"`
	// LatencyEWMAMS is the smoothed leader-observed round latency.
	LatencyEWMAMS float64 `json:"latency_ewma_ms"`
	// ErrorEWMA is the smoothed failure rate in [0, 1].
	ErrorEWMA float64 `json:"error_ewma"`
	// Rounds / Failures count observed rounds since start.
	Rounds   int64 `json:"rounds"`
	Failures int64 `json:"failures"`
	// LastRoundAgeS is seconds since the node was last observed
	// (0 when never observed).
	LastRoundAgeS float64 `json:"last_round_age_s"`
	// LastError is the most recent round failure reason ("" if the
	// latest round succeeded).
	LastError string `json:"last_error,omitempty"`
	// SummaryEpoch / Stale mirror the registry's view at report time.
	SummaryEpoch uint64 `json:"summary_epoch"`
	Stale        bool   `json:"stale"`
	// Wire carries transport stats for remote nodes.
	Wire *WireStatus `json:"wire,omitempty"`
}

// nodeState is the tracked per-node accumulator.
type nodeState struct {
	rounds   int64
	failures int64
	latEWMA  float64 // ms; 0 until the first successful round
	errEWMA  float64
	lastSeen time.Time
	lastErr  string

	// metric handles, resolved once per node
	latGauge   *telemetry.Gauge
	errGauge   *telemetry.Gauge
	scoreGauge *telemetry.Gauge
}

// Tracker accumulates per-node round outcomes into health scores.
//
// The score is availability × speed × freshness:
//
//	availability = 1 − errorEWMA
//	speed        = min(1, fleetMedianLatency / latencyEWMA)
//	freshness    = staleFactor if the registry marks the node's
//	               summaries stale, else 1
//
// A node at the fleet's median latency with no failures and fresh
// summaries scores 1.0; a node failing every round scores 0. Speed is
// relative — it ranks nodes against the fleet they are in rather than
// against an absolute latency budget, so the score stays meaningful
// across deployments whose baseline latencies differ by orders of
// magnitude.
type Tracker struct {
	mu    sync.Mutex
	nodes map[string]*nodeState
	reg   *telemetry.Registry
	lats  []float64 // medianLatencyLocked's scratch, reused across rounds
}

// NewTracker builds a tracker exporting qens_fleet_* gauges to reg
// (nil uses the process-default registry).
func NewTracker(reg *telemetry.Registry) *Tracker {
	if reg == nil {
		reg = telemetry.Default()
	}
	reg.SetHelp("qens_fleet_latency_ewma_ms", "Smoothed leader-observed round latency per node (ms).")
	reg.SetHelp("qens_fleet_error_ewma", "Smoothed round failure rate per node (0..1).")
	reg.SetHelp("qens_fleet_health_score", "Composite node health: availability x relative speed (0..1, staleness applied in /v1/fleet).")
	return &Tracker{nodes: map[string]*nodeState{}, reg: reg}
}

// state returns (creating) the accumulator for nodeID. Caller holds mu.
func (t *Tracker) state(nodeID string) *nodeState {
	s, ok := t.nodes[nodeID]
	if !ok {
		label := telemetry.L("node", nodeID)
		s = &nodeState{
			latGauge:   t.reg.Gauge("qens_fleet_latency_ewma_ms", label...),
			errGauge:   t.reg.Gauge("qens_fleet_error_ewma", label...),
			scoreGauge: t.reg.Gauge("qens_fleet_health_score", label...),
		}
		s.scoreGauge.Set(1)
		t.nodes[nodeID] = s
	}
	return s
}

// ObserveRound folds one leader-observed round outcome into the
// node's EWMAs and refreshes the exported gauges. errStr is "" on
// success.
func (t *Tracker) ObserveRound(nodeID string, elapsed time.Duration, errStr string) {
	if nodeID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(nodeID)
	s.rounds++
	s.lastSeen = time.Now()
	s.lastErr = errStr
	failed := 0.0
	if errStr != "" {
		s.failures++
		failed = 1
	}
	if s.rounds == 1 {
		s.errEWMA = failed
	} else {
		s.errEWMA += ewmaAlpha * (failed - s.errEWMA)
	}
	// Latency only counts completed work: a fast failure must not
	// make a broken node look quick.
	if errStr == "" {
		ms := float64(elapsed) / float64(time.Millisecond)
		if s.latEWMA == 0 {
			s.latEWMA = ms
		} else {
			s.latEWMA += ewmaAlpha * (ms - s.latEWMA)
		}
	}
	s.latGauge.Set(s.latEWMA)
	s.errGauge.Set(s.errEWMA)
	// Refresh every score gauge: the fleet median moved with this
	// observation. Fleets are small (10s of nodes), so the O(n log n)
	// median under the mutex is noise next to the round's RPC.
	median := t.medianLatencyLocked()
	for _, st := range t.nodes {
		st.scoreGauge.Set(st.baseScore(median))
	}
}

// medianLatencyLocked returns the fleet's median latency EWMA over
// nodes that have completed at least one round (0 when none have).
func (t *Tracker) medianLatencyLocked() float64 {
	t.lats = t.lats[:0]
	for _, s := range t.nodes {
		if s.latEWMA > 0 {
			t.lats = append(t.lats, s.latEWMA)
		}
	}
	if len(t.lats) == 0 {
		return 0
	}
	sort.Float64s(t.lats)
	return t.lats[len(t.lats)/2]
}

// baseScore is availability × speed (freshness is applied at report
// time, where the registry's staleness view is available).
func (s *nodeState) baseScore(medianLat float64) float64 {
	avail := 1 - s.errEWMA
	if avail < 0 {
		avail = 0
	}
	speed := 1.0
	if s.latEWMA > 0 && medianLat > 0 && s.latEWMA > medianLat {
		speed = medianLat / s.latEWMA
	}
	return avail * speed
}

// Report renders the fleet's health. meta supplies per-node registry
// staleness and wire stats (may be nil); node IDs present only in the
// tracker (observed but unknown to meta) and only in meta (known but
// never observed) both appear, so a node that dropped out of the
// roster or never answered a round stays visible. Nodes are sorted by
// ID.
func (t *Tracker) Report(meta map[string]Meta) []NodeHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[string]bool, len(t.nodes)+len(meta))
	for id := range t.nodes {
		ids[id] = true
	}
	for id := range meta {
		ids[id] = true
	}
	median := t.medianLatencyLocked()
	now := time.Now()
	out := make([]NodeHealth, 0, len(ids))
	for id := range ids {
		h := NodeHealth{NodeID: id, Score: 1}
		if s, ok := t.nodes[id]; ok {
			h.LatencyEWMAMS = s.latEWMA
			h.ErrorEWMA = s.errEWMA
			h.Rounds = s.rounds
			h.Failures = s.failures
			h.LastError = s.lastErr
			if !s.lastSeen.IsZero() {
				h.LastRoundAgeS = now.Sub(s.lastSeen).Seconds()
			}
			h.Score = s.baseScore(median)
		}
		if m, ok := meta[id]; ok {
			h.SummaryEpoch = m.SummaryEpoch
			h.Stale = m.Stale
			h.Wire = m.Wire
			if m.Stale {
				h.Score *= staleFactor
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}
