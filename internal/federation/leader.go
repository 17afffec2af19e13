package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/fleet"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/plan"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Config parameterizes a federation.
type Config struct {
	// Spec is the model architecture and hyper-parameters every
	// participant trains (Table III).
	Spec ml.Spec
	// ClusterK is the per-node k-means K (the paper fixes 5). Only
	// NewSimulatedFleet reads it, for the nodes it builds.
	ClusterK int
	// LocalEpochs is the paper's E: local iterations per supporting
	// cluster (default 5).
	LocalEpochs int
	// TolerateFailures makes Execute skip participants whose
	// training round fails (network drop, bad state) instead of
	// aborting the query, as long as at least one participant
	// succeeds. The failed node ids are recorded in Result.Failed.
	TolerateFailures bool
	// Seed drives the leader's stochastic choices (random
	// selection, model init).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.ClusterK == 0 {
		c.ClusterK = 5
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 5
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("federation: %w", err)
	}
	if c.ClusterK < 1 {
		return fmt.Errorf("federation: cluster K %d < 1", c.ClusterK)
	}
	if c.LocalEpochs < 1 {
		return fmt.Errorf("federation: local epochs %d < 1", c.LocalEpochs)
	}
	return nil
}

// Leader orchestrates per-query distributed learning (§III-A): it
// holds the participant roster, collects their cluster advertisements
// into a versioned registry, plans participant selection per incoming
// query (internal/plan), distributes the global model, and aggregates
// the returned local models.
//
// The per-query hot path is a Plan/Execute pipeline: the pure-CPU
// planning stage reads a lock-free registry snapshot (no mutex at
// steady state), and only the I/O-bound execution stage talks to the
// fleet. Everything derived from an advertisement epoch — the warm-up
// model, reuse-cache entries, plan fingerprints — is keyed to that
// epoch and dies with it when the registry refreshes.
//
// A Leader is safe for concurrent callers: Execute and Round may run
// simultaneously from many goroutines (the serving path in
// internal/gateway depends on this).
// The shared RNG is internally locked (see internal/rng), the summary
// registry publishes copy-on-write snapshots, and every selector is a
// stateless value.
type Leader struct {
	cfg     Config
	data    *dataset.Dataset // the leader's own local data (§II pre-test)
	clients []Client
	src     *rng.Source
	w0      *InitialModel

	reg     *registry.Registry // versioned advertisement store
	planner *plan.Planner      // pure-CPU planning stage

	warmupMu    sync.Mutex
	warmup      *ml.Params // cached §II warm-up model
	warmupEpoch uint64     // registry epoch the warm-up was fit under

	tracer  *telemetry.Tracer // nil: fall back to telemetry.DefaultTracer
	metrics *telemetry.Registry
	health  *fleet.Tracker // per-node round latency/error EWMAs

	push leaderPush // summary push subscriptions (see push.go)
}

// NewLeader builds a leader over the given participants. leaderData is
// the leader's own local dataset, used only for the §II warm-up
// pre-test (GameTheory selection and PreTest); it may be nil if those
// are never used.
func NewLeader(cfg Config, leaderData *dataset.Dataset, clients []Client) (*Leader, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, errors.New("federation: leader needs at least one participant")
	}
	seen := map[string]bool{}
	for _, c := range clients {
		if seen[c.ID()] {
			return nil, fmt.Errorf("federation: duplicate participant id %q", c.ID())
		}
		seen[c.ID()] = true
	}
	l := &Leader{
		cfg: cfg, data: leaderData, clients: clients, src: rng.New(cfg.Seed), w0: NewInitialModel(cfg.Spec),
		metrics: telemetry.Default(),
		health:  fleet.NewTracker(telemetry.Default()),
	}
	l.metrics.SetHelp("qens_queries_total", "Queries executed by the leader, by selector.")
	l.metrics.SetHelp("qens_selection_ms", "Leader-side participant ranking/selection latency (ms).")
	reg, err := registry.New(l.fetchSummaries)
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	l.reg = reg
	l.planner = plan.NewPlanner(reg)
	return l, nil
}

// fetchSummaries is the registry's FetchFunc, the one roster walk
// for advertisements: one delta per participant in roster order. A node
// whose advertisement epoch matches the registry's known epoch answers
// with a summary-free "unchanged" probe; everyone else — every node
// when known is nil — ships a validated full summary.
func (l *Leader) fetchSummaries(ctx context.Context, known []registry.NodeEpoch) ([]registry.Delta, error) {
	if known != nil && len(known) != len(l.clients) {
		return nil, fmt.Errorf("federation: delta refresh over %d known epochs, roster has %d", len(known), len(l.clients))
	}
	out := make([]registry.Delta, 0, len(l.clients))
	for i, c := range l.clients {
		var held uint64
		if known != nil {
			if known[i].NodeID != c.ID() {
				return nil, fmt.Errorf("federation: delta roster mismatch at %d: %s vs %s", i, known[i].NodeID, c.ID())
			}
			held = known[i].Epoch
		}
		s, unchanged, err := c.SummaryIfChanged(ctx, held)
		if err != nil {
			return nil, fmt.Errorf("federation: summary from %s: %w", c.ID(), err)
		}
		if unchanged {
			out = append(out, registry.Delta{NodeID: c.ID(), Unchanged: true})
			continue
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("federation: summary from %s: %w", c.ID(), err)
		}
		out = append(out, registry.Delta{NodeID: c.ID(), Summary: s})
	}
	return out, nil
}

// Config returns the leader's configuration (with defaults applied).
func (l *Leader) Config() Config { return l.cfg }

// NodeIDs returns the participant ids in roster order.
func (l *Leader) NodeIDs() []string {
	out := make([]string, len(l.clients))
	for i, c := range l.clients {
		out[i] = c.ID()
	}
	return out
}

// Summaries fetches (and caches) every participant's cluster
// advertisement — the one-off O(1)-per-node communication of §III-C.
func (l *Leader) Summaries() ([]cluster.NodeSummary, error) {
	return l.SummariesContext(context.Background())
}

// SummariesContext is Summaries with deadline/cancellation support.
// It resolves the current registry snapshot (fetching the fleet only
// when none exists or it was invalidated);
// concurrent first callers wait for one round of advertisements
// instead of each polling the fleet.
func (l *Leader) SummariesContext(ctx context.Context) ([]cluster.NodeSummary, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return snap.Summaries, nil
}

// Space returns the global data space: the union of every node's
// advertised cluster rectangles, which queries are drawn over.
func (l *Leader) Space(ctx context.Context) (geometry.Rect, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return geometry.Rect{}, err
	}
	return query.GlobalSpace(snap.NodeBounds)
}

// Dims returns the fleet's feature-space dimensionality.
func (l *Leader) Dims(ctx context.Context) (int, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return 0, err
	}
	return snap.Dims, nil
}

// InvalidateSummaries marks the cached advertisements stale (call
// after node data changes): the next query re-fetches the fleet and
// bumps the registry epoch, flushing every epoch-keyed derived cache.
func (l *Leader) InvalidateSummaries() {
	l.reg.Invalidate()
}

// Registry exposes the leader's versioned summary store (epoch
// inspection, background refresh, drift signalling).
func (l *Leader) Registry() *registry.Registry { return l.reg }

// Planner exposes the pure-CPU planning stage.
func (l *Leader) Planner() *plan.Planner { return l.planner }

// HealthReport scores every roster node — including ones that never
// answered a round — from the round latency/error EWMAs, merged with
// the registry's state at report time: each node's advertisement epoch
// and the registry-wide staleness (the registry invalidates as a whole
// when any node signals drift; until the refresh lands every node is
// planned against potentially stale geometry). wire adds transport
// state for remote nodes. Nothing is fetched: the report works on a
// dead fleet.
func (l *Leader) HealthReport(wire []fleet.WireStatus) (registry.Stats, []fleet.NodeHealth) {
	st := l.reg.Stats()
	meta := make(map[string]fleet.Meta, len(l.clients))
	for _, c := range l.clients {
		meta[c.ID()] = fleet.Meta{}
	}
	if snap, ok := l.reg.Current(); ok {
		for _, n := range snap.Nodes {
			m := meta[n.NodeID]
			m.SummaryEpoch, m.Stale = snap.NodeSummaryEpoch(n.NodeID), st.Stale
			meta[n.NodeID] = m
		}
	}
	for i := range wire {
		m := meta[wire[i].NodeID]
		m.Wire = &wire[i]
		meta[wire[i].NodeID] = m
	}
	return st, l.health.Report(meta)
}

// SummaryEpoch returns the current advertisement epoch (0 before the
// first fetch). Lock-free.
func (l *Leader) SummaryEpoch() uint64 { return l.reg.Epoch() }

// client looks up a participant by id.
func (l *Leader) client(id string) (Client, error) {
	for _, c := range l.clients {
		if c.ID() == id {
			return c, nil
		}
	}
	return nil, fmt.Errorf("federation: unknown participant %q", id)
}

// warmupParams lazily trains the leader's local warm-up model used by
// the §II pre-test and GameTheory selection. The fit is serialized so
// concurrent queries share one warm-up model, and the cache is keyed
// to the registry epoch: when the advertisements refresh (node data
// changed), the stale warm-up dies with them and the next pre-test
// refits against the new regime.
func (l *Leader) warmupParams() (ml.Params, error) {
	epoch := l.reg.Epoch()
	l.warmupMu.Lock()
	defer l.warmupMu.Unlock()
	if l.warmup != nil && l.warmupEpoch == epoch {
		return *l.warmup, nil
	}
	if l.data == nil || l.data.Len() == 0 {
		return ml.Params{}, errors.New("federation: leader has no local data for the pre-test warm-up")
	}
	spec := l.cfg.Spec
	spec.Seed = uint64(l.src.Int63())
	model, err := spec.New()
	if err != nil {
		return ml.Params{}, err
	}
	if err := model.Fit(l.data.View()); err != nil {
		return ml.Params{}, fmt.Errorf("federation: warm-up fit: %w", err)
	}
	p := model.Params()
	l.warmup = &p
	l.warmupEpoch = epoch
	return p, nil
}

// ErrPreTestNotLocal reports a §II pre-test score (PreTest, or
// GameTheory selection) asked of a participant that is not an
// in-process LocalClient: the pre-test is §V comparison machinery, and
// no RPC carries it.
var ErrPreTestNotLocal = errors.New("federation: the pre-test scores in-process nodes only")

// evaluateWarmup scores the warm-up model on one node's local data.
func (l *Leader) evaluateWarmup(ctx context.Context, nodeID string) (float64, error) {
	params, err := l.warmupParams()
	if err != nil {
		return 0, err
	}
	c, err := l.client(nodeID)
	if err != nil {
		return 0, err
	}
	local, ok := c.(LocalClient)
	if !ok {
		return 0, fmt.Errorf("node %s: %w", nodeID, ErrPreTestNotLocal)
	}
	resp, err := local.Node.EvaluateContext(ctx, EvalRequest{Spec: l.cfg.Spec, Params: params})
	if err != nil {
		return 0, err
	}
	// Evaluation responses carry advertisement epochs just like
	// training responses, so pre-test scoring doubles as a drift probe.
	l.reg.SignalNodeEpoch(nodeID, resp.SummaryEpoch)
	return resp.MSE, nil
}

// PreTest runs the §II heterogeneity pre-test across all participants.
func (l *Leader) PreTest(ratioThreshold float64) (*selection.PreTestResult, error) {
	return selection.PreTest(l.NodeIDs(), func(nodeID string) (float64, error) {
		return l.evaluateWarmup(context.Background(), nodeID)
	}, ratioThreshold)
}

// Stats accounts for one query execution.
type Stats struct {
	// SelectionTime is the time this execution spent ranking and
	// selecting: 0 when it trained from Request.Prepared.
	SelectionTime time.Duration
	// TrainTime is the summed node-reported training time.
	TrainTime time.Duration
	// WallTime is the end-to-end execution time.
	WallTime time.Duration
	// SamplesUsed is the number of samples trained on across the
	// selected participants.
	SamplesUsed int
	// SamplesSelectedNodes is the total data held by the selected
	// participants (the denominator for the Fig. 9 selectivity
	// accounting at node scope).
	SamplesSelectedNodes int
	// SamplesAllNodes is the total data across all participants.
	SamplesAllNodes int
	// BytesUp estimates bytes sent leader->nodes (model params).
	BytesUp int64
	// BytesDown estimates bytes received nodes->leader.
	BytesDown int64
}

// DataFraction returns SamplesUsed / SamplesAllNodes, the Fig. 9
// quantity.
func (s Stats) DataFraction() float64 {
	if s.SamplesAllNodes == 0 {
		return 0
	}
	return float64(s.SamplesUsed) / float64(s.SamplesAllNodes)
}

// Result is the outcome of executing one query.
type Result struct {
	Query query.Query
	// Epoch is the advertisement epoch the query was planned against;
	// caches keyed on it (see ReuseCache) are flushed when the
	// registry refreshes.
	Epoch        uint64
	Selector     string
	Aggregation  Aggregation
	Participants []selection.Participant
	LocalParams  []ml.Params
	Ensemble     *Ensemble
	// Failed lists participants that were selected but whose
	// training round failed (only populated with
	// Config.TolerateFailures; their models are excluded from the
	// ensemble).
	Failed []string
	// TrainMins/TrainMaxs pack the cluster rectangles the ensemble
	// was actually trained on (every supporting cluster of every
	// participant), rect-major with TrainDims values per rectangle —
	// the same flat layout registry.NodeGeom uses. The model-answer
	// cache scores coverage of future queries against these to bound
	// the expected extrapolation error. Empty for results built
	// before capture existed (wire-decoded, legacy callers).
	TrainMins []float64
	TrainMaxs []float64
	TrainDims int
	Stats     Stats
}

// plan resolves the registry snapshot (fetching the fleet at most once)
// and runs the pure-CPU planning stage — candidate ranking, selection
// policy — under a "selection" child of qspan (nil: untraced). explain
// disables the spatial-index fast path so every ranking row carries
// full per-dimension overlap detail; the participant set is the same.
// Only selection failures are wrapped. The caller must Release the plan.
func (l *Leader) plan(ctx context.Context, qspan *telemetry.SpanHandle, q query.Query, sel selection.Selector, explain bool) (*plan.Plan, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	// Only a stochastic or pre-testing selector reads the selector
	// dependencies; the pre-test's evaluations honor the query's ctx.
	var sctx *selection.Context
	if !selection.Deterministic(sel) {
		sctx = &selection.Context{RNG: l.src, Evaluate: func(nodeID string) (float64, error) {
			return l.evaluateWarmup(ctx, nodeID)
		}}
	}
	span := qspan.Child("selection")
	var pl *plan.Plan
	if explain {
		pl, err = l.planner.ExplainOn(snap, q, sel, sctx)
	} else {
		pl, err = l.planner.PlanOn(snap, q, sel, sctx)
	}
	span.End(err)
	if err != nil {
		return nil, fmt.Errorf("federation: %s selection for %s: %w", sel.Name(), q.ID, err)
	}
	return pl, nil
}

// PlanContext plans a query without issuing a training RPC. The caller
// must Release the returned plan.
func (l *Leader) PlanContext(ctx context.Context, q query.Query, sel selection.Selector) (*plan.Plan, error) {
	return l.plan(ctx, nil, q, sel, false)
}

// ExplainContext is PlanContext with the full-detail ranking the
// gateway's EXPLAIN endpoint renders.
func (l *Leader) ExplainContext(ctx context.Context, q query.Query, sel selection.Selector) (*plan.Plan, error) {
	return l.plan(ctx, nil, q, sel, true)
}

// Explanation is the EXPLAIN view of one query — what a topology would
// select and the full per-node ranking (Eqs. 2–4) behind it — owning
// its memory. Epoch is the registry epoch the plan derives from; under
// the root router it is the routing-topology generation and Regions
// lists the shards.
type Explanation struct {
	Epoch        uint64
	Selector     string
	Epsilon      float64
	Key          string
	Regions      []string
	Participants []selection.Participant
	Rankings     []selection.NodeRank
}

// ExplainQuery is ExplainContext copied out of the plan's arenas.
func (l *Leader) ExplainQuery(ctx context.Context, q query.Query, sel selection.Selector) (*Explanation, error) {
	pl, err := l.ExplainContext(ctx, q, sel)
	if err != nil {
		return nil, err
	}
	defer pl.Release()
	ex := &Explanation{
		Epoch: pl.Epoch, Selector: pl.Selector, Epsilon: pl.Epsilon, Key: pl.Key(),
		Participants: pl.CopyParticipants(),
		Rankings:     make([]selection.NodeRank, len(pl.Rankings)),
	}
	for i, nr := range pl.Rankings {
		nr.Supporting = append([]int(nil), nr.Supporting...)
		nr.Overlaps, nr.Sizes = nil, nil // arena-backed; EXPLAIN renders neither
		ex.Rankings[i] = nr
	}
	return ex, nil
}

// EvaluateResult scores a result's ensemble against test data
// restricted to the query's subspace, returning the MSE and the number
// of test samples that fell inside the query. When no test samples
// fall inside the query rectangle, ok is false.
func EvaluateResult(res *Result, test *dataset.Dataset) (mse float64, samples int, ok bool) {
	sub := test.FilterInRect(res.Query.Bounds)
	if sub.Len() == 0 {
		return 0, 0, false
	}
	x, y := sub.XY()
	return ml.MSE(y, res.Ensemble.PredictBatch(x)), sub.Len(), true
}
