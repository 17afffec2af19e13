package region

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/plan"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Config parameterizes the root coordinator.
type Config struct {
	// Spec is the model architecture every participant trains; the
	// root draws the per-query model seed, exactly like a single
	// leader would.
	Spec ml.Spec
	// LocalEpochs is the paper's E (default 5).
	LocalEpochs int
	// TolerateFailures skips participants whose round failed instead
	// of aborting the query, as long as one participant succeeds.
	TolerateFailures bool
	// Seed drives the root's one stochastic choice, the model-init
	// draw. With the same seed, fleet and query sequence, the
	// sharded topology reproduces the single-leader path bit-exactly.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 5
	}
	return c
}

// member is the router's per-region handle: the service plus the
// latest epoch observed on any response from it.
type member struct {
	svc    Service
	id     string
	epoch  atomic.Uint64 // newest epoch seen on any RPC response
	routed atomic.Int64  // queries whose fan-out included this region
}

// observe folds a response-reported epoch into the member's high-water
// mark; reports whether it moved.
func (m *member) observe(epoch uint64) bool {
	for {
		cur := m.epoch.Load()
		if epoch <= cur {
			return false
		}
		if m.epoch.CompareAndSwap(cur, epoch) {
			return true
		}
	}
}

// topology is one immutable routing view: the region covering rects
// indexed in an R-tree, the global roster assembled from per-region
// membership, and the epochs it was built from. It is revalidated
// against each member's latest observed epoch and rebuilt when any
// shard moved.
type topology struct {
	gen     uint64
	infos   []Info
	epochs  []uint64
	index   *geometry.RTree
	space   geometry.Rect
	roster  []NodeInfo
	nodeIDs []string
	byNode  map[string]nodeRef
	total   int // fleet-wide Σ|D_i|
	dims    int
}

// nodeRef locates a node: its owning member and its position in the
// global roster (the canonical order merged rankings are sorted into).
type nodeRef struct{ member, pos int }

// Router is the root coordinator of the hierarchical federation: the
// gateway-facing executor that routes each query rectangle to the
// overlapping regions, merges their shard rankings into one global
// candidate set, applies the selection policy, fans the training round
// out over the shards, and aggregates the returned local models.
type Router struct {
	cfg     Config
	members []*member
	src     *rng.Source
	w0      *federation.InitialModel
	tracer  *telemetry.Tracer

	topoMu sync.Mutex
	topo   atomic.Pointer[topology]
	gen    atomic.Uint64

	// fence validates reuse-cache entries against the members' latest
	// observed epochs (see federation.Fence.Current).
	fence federation.Fence

	queries       atomic.Int64 // executions
	spanning      atomic.Int64 // executions that fanned out to every region
	regionsPruned atomic.Int64 // regions an execution's route skipped
	noRoute       atomic.Int64 // admission-time plans that routed to no region
	metricReg     *telemetry.Registry
}

// NewRouter builds a root coordinator over the regional services. No
// RPC is issued until the first query (or an explicit Space/Stats
// call) resolves the topology.
func NewRouter(cfg Config, services []Service) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("region: %w", err)
	}
	if cfg.LocalEpochs < 1 {
		return nil, fmt.Errorf("region: local epochs %d < 1", cfg.LocalEpochs)
	}
	if len(services) == 0 {
		return nil, errors.New("region: router needs at least one region")
	}
	r := &Router{cfg: cfg, src: rng.New(cfg.Seed), w0: federation.NewInitialModel(cfg.Spec), metricReg: telemetry.Default()}
	seen := map[string]bool{}
	for _, svc := range services {
		if svc == nil {
			return nil, errors.New("region: nil region service")
		}
		if seen[svc.ID()] {
			return nil, fmt.Errorf("region: duplicate region id %q", svc.ID())
		}
		seen[svc.ID()] = true
		r.members = append(r.members, &member{svc: svc, id: svc.ID()})
	}
	r.fence.Current = func(i int) uint64 { return r.members[i].epoch.Load() }
	r.metricReg.SetHelp("qens_region_routed_total", "Queries fanned out to each region by the root coordinator.")
	return r, nil
}

// SetTracer sets the tracer the router's queries record into; nil
// (the default) leaves them untraced.
func (r *Router) SetTracer(t *telemetry.Tracer) { r.tracer = t }

// Regions returns the region ids in construction order.
func (r *Router) Regions() []string {
	out := make([]string, len(r.members))
	for i, m := range r.members {
		out[i] = m.id
	}
	return out
}

// topoValid reports whether every member's latest observed epoch still
// matches the topology's build basis.
func (r *Router) topoValid(t *topology) bool {
	for i, m := range r.members {
		if m.epoch.Load() > t.epochs[i] {
			return false
		}
	}
	return true
}

// topology resolves the current routing view, rebuilding it when any
// region reported a newer epoch since the last build; a rebuild asks
// only the regions that moved for their Info. The steady-state path is
// one atomic load plus an epoch scan — no locks, no RPCs.
func (r *Router) topology(ctx context.Context) (*topology, error) {
	if t := r.topo.Load(); t != nil && r.topoValid(t) {
		return t, nil
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	if t := r.topo.Load(); t != nil && r.topoValid(t) {
		return t, nil
	}

	prev := r.topo.Load()
	infos := make([]Info, len(r.members))
	errs := make([]error, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		if prev != nil && m.epoch.Load() <= prev.epochs[i] {
			infos[i] = prev.infos[i] // this region did not move: no RPC
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			infos[i], errs[i] = m.svc.Info(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("region: info from %s: %w", r.members[i].id, err)
		}
	}

	t := &topology{
		infos:  infos,
		epochs: make([]uint64, len(infos)),
		byNode: map[string]nodeRef{},
		dims:   -1,
	}
	entries := make([]geometry.Entry, len(infos))
	for i, info := range infos {
		if len(info.Nodes) == 0 {
			return nil, fmt.Errorf("region: %s reports no members", r.members[i].id)
		}
		if t.dims == -1 {
			t.dims = info.Dims
			t.space = info.Bounds.Clone()
		} else {
			if info.Dims != t.dims {
				return nil, fmt.Errorf("region: %s advertises %d dims, fleet has %d", r.members[i].id, info.Dims, t.dims)
			}
			t.space = t.space.Union(info.Bounds)
		}
		t.epochs[i] = info.Epoch
		r.members[i].observe(info.Epoch)
		t.total += info.TotalSamples
		entries[i] = geometry.Entry{Rect: info.Bounds, ID: i}
		for _, n := range info.Nodes {
			if _, dup := t.byNode[n.NodeID]; dup {
				return nil, fmt.Errorf("region: node %s claimed by two regions", n.NodeID)
			}
			t.byNode[n.NodeID] = nodeRef{member: i}
			t.roster = append(t.roster, n)
		}
	}
	index, err := geometry.BuildRTree(entries, 0)
	if err != nil {
		return nil, fmt.Errorf("region: routing index: %w", err)
	}
	t.index = index
	sort.SliceStable(t.roster, func(a, b int) bool {
		if t.roster[a].RosterIndex != t.roster[b].RosterIndex {
			return t.roster[a].RosterIndex < t.roster[b].RosterIndex
		}
		return t.roster[a].NodeID < t.roster[b].NodeID
	})
	t.nodeIDs = make([]string, len(t.roster))
	for i, n := range t.roster {
		t.nodeIDs[i] = n.NodeID
		t.byNode[n.NodeID] = nodeRef{member: t.byNode[n.NodeID].member, pos: i}
	}
	t.gen = r.gen.Add(1)
	r.topo.Store(t)
	return t, nil
}

// NodeIDs returns the global fleet roster in roster order, resolving
// the topology if needed.
func (r *Router) NodeIDs(ctx context.Context) ([]string, error) {
	t, err := r.topology(ctx)
	if err != nil {
		return nil, err
	}
	return t.nodeIDs, nil
}

// Dims returns the fleet's feature-space dimensionality.
func (r *Router) Dims(ctx context.Context) (int, error) {
	t, err := r.topology(ctx)
	if err != nil {
		return 0, err
	}
	return t.dims, nil
}

// route picks the regions that could hold supporting clusters for the
// query. Only the paper's query-driven mechanism may prune: all-nodes
// picks the whole roster, so its candidate set must span the fleet.
//
// Pruning must be sound against Eq. 2, which scores support as the
// per-dimension MEAN of interval overlaps — a cluster overlapping the
// query in a single dimension still earns h up to overlapDims/dims.
// So a geometric R-tree hit (full intersection) is a definite route,
// and the remaining regions are admitted whenever that Eq. 2 upper
// bound over their covering rectangle clears ε; a region is pruned
// only when the bound proves every member cluster ranks below the
// support threshold. Returns member indices in ascending order. A
// query no region can support has no supporting cluster anywhere, so
// it surfaces selection.ErrNoCandidates — the gateway's 422
// no-candidates taxonomy, not a routing failure. Pure: plan and
// execute do the counting.
func (r *Router) route(t *topology, q query.Query, sel selection.Selector, eps float64) ([]int, error) {
	_, prune := sel.(selection.QueryDriven)
	// Rectangle-spanning fallback: a query covering the whole indexed
	// space fans out everywhere without walking the tree.
	if !prune || (q.Bounds.Dims() == t.dims && q.Bounds.ContainsRect(t.space)) {
		all := make([]int, len(r.members))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	hit := make([]bool, len(r.members))
	err := t.index.Search(q.Bounds, func(e geometry.Entry) bool {
		hit[e.ID] = true
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("region: route %s: %w", q.ID, err)
	}
	var routed []int
	for i := range r.members {
		if !hit[i] && !regionCanSupport(q.Bounds, t.infos[i].Bounds, eps) {
			continue
		}
		routed = append(routed, i)
	}
	if len(routed) == 0 {
		return nil, selection.ErrNoCandidates
	}
	return routed, nil
}

// regionCanSupport is the Eq. 2 admission bound: a cluster inside the
// region covering rect can only earn per-dimension overlap in the
// dimensions where the query and the covering rect intersect at all,
// so its support h is at most overlapDims/dims. A region whose bound
// falls below ε provably holds no supporting cluster.
func regionCanSupport(q, region geometry.Rect, eps float64) bool {
	dims := q.Dims()
	if dims == 0 || dims != region.Dims() {
		return true // malformed probe: let the region-side planner decide
	}
	overlapDims := 0
	for d := 0; d < dims; d++ {
		if q.Min[d] <= region.Max[d] && q.Max[d] >= region.Min[d] {
			overlapDims++
		}
	}
	return float64(overlapDims)/float64(dims) >= eps
}

// rank fans Plan RPCs out to the listed members and merges their
// ranking rows into global roster order. stamps[k] is members[k]'s
// epoch behind the rows: a result (or plan) built on them is valid
// only while that member still reports it. pruned lets the regions take
// their R-tree-pruned kernel, which is sound only for the stateless
// query-driven policy — it never reads per-node overlap vectors; every
// other consumer needs full-fidelity rows.
func (r *Router) rank(ctx context.Context, parent *telemetry.SpanHandle, t *topology, q query.Query, eps float64, members []int, pruned bool) ([]selection.NodeRank, []federation.EpochStamp, error) {
	resps := make([]PlanResponse, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for k, mi := range members {
		wg.Add(1)
		go func(k, mi int) {
			defer wg.Done()
			m := r.members[mi]
			sp := parent.Child("region.plan") // a nil parent's child is a no-op
			sp.SetAttr("region", m.id)
			resps[k], errs[k] = m.svc.Plan(ctx, PlanRequest{Query: q, Epsilon: eps, QueryDriven: pruned})
			sp.End(errs[k])
		}(k, mi)
	}
	wg.Wait()
	stamps := make([]federation.EpochStamp, len(members))
	var merged []selection.NodeRank
	for k, mi := range members {
		if errs[k] != nil {
			return nil, nil, fmt.Errorf("region: plan on %s: %w", r.members[mi].id, errs[k])
		}
		r.members[mi].observe(resps[k].Epoch)
		stamps[k] = federation.EpochStamp{Source: mi, Epoch: resps[k].Epoch}
		merged = append(merged, resps[k].Ranks...)
	}
	// Canonical global order: sort by roster position (node id breaks
	// ties). Selectors that pick by position and the order-sensitive
	// ensemble summation both require the exact single-leader order.
	sort.SliceStable(merged, func(a, b int) bool {
		ia, ib := t.byNode[merged[a].NodeID].pos, t.byNode[merged[b].NodeID].pos
		if ia != ib {
			return ia < ib
		}
		return merged[a].NodeID < merged[b].NodeID
	})
	return merged, stamps, nil
}

// plan is the root's selection stage, behind Prepare, execute and
// ExplainQuery: resolve the topology, route, fan the ranking out, merge
// (ranks, in global roster order), apply the policy — under one
// "selection" span like the single-leader path. It counts a query-driven
// plan that routes nowhere; explain counts nothing and ranks every
// region with full-fidelity rows (EXPLAIN shows the complete fleet).
// Stamps describes the routed regions either way.
func (r *Router) plan(ctx context.Context, qspan *telemetry.SpanHandle, q query.Query, sel selection.Selector, explain bool) (_ *federation.Prepared, _ *topology, ranks []selection.NodeRank, err error) {
	start := time.Now()
	t, err := r.topology(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	span := qspan.Child("selection")
	eps := plan.EpsilonFor(sel)
	qd, queryDriven := sel.(selection.QueryDriven)
	var (
		routed []int
		basis  []federation.EpochStamp // the routed members' epochs behind ranks
		parts  []selection.Participant
	)
	if queryDriven {
		err = qd.Validate()
	}
	if err == nil {
		routed, err = r.route(t, q, sel, eps)
		if !explain && errors.Is(err, selection.ErrNoCandidates) {
			r.noRoute.Add(1)
		}
	}
	if err == nil && !explain {
		ranks, basis, err = r.rank(ctx, span, t, q, eps, routed, queryDriven)
	} else if err == nil {
		// AllNodes is not query-driven, so it routes to every region:
		// all[mi] is member mi's stamp.
		everywhere, _ := r.route(t, q, selection.AllNodes{}, eps)
		var all []federation.EpochStamp
		if ranks, all, err = r.rank(ctx, span, t, q, eps, everywhere, false); err == nil {
			for _, mi := range routed {
				basis = append(basis, all[mi])
			}
		}
	}
	if err == nil {
		set := selection.CandidateSet{Query: q, Epsilon: eps, Ranks: ranks}
		parts, err = sel.SelectFrom(&set, nil)
	}
	span.End(err)
	if err != nil {
		// The single leader's error shape, so gateway taxonomy (422 on
		// ErrNoCandidates) keeps working unchanged.
		return nil, nil, nil, fmt.Errorf("federation: %s selection for %s: %w", sel.Name(), q.ID, err)
	}
	return &federation.Prepared{
		Participants: parts, Epoch: t.gen, Stamps: basis, PlanTime: time.Since(start),
	}, t, ranks, nil
}

// Prepare runs the root's selection stage alone: one plan round to the
// routed regions, no training.
func (r *Router) Prepare(ctx context.Context, q query.Query, sel selection.Selector) (*federation.Prepared, error) {
	p, _, _, err := r.plan(ctx, nil, q, sel, false)
	return p, err
}

// current returns the topology p was prepared over while it is still
// the live, valid one and every routed region still reports its stamped
// epoch (the reuse fence's comparison); nil once p's basis moved.
func (r *Router) current(p *federation.Prepared) *topology {
	t := r.topo.Load()
	if p == nil || t == nil || t.gen != p.Epoch || !r.topoValid(t) {
		return nil
	}
	for _, st := range p.Stamps {
		if r.fence.Current(st.Source) != st.Epoch {
			return nil
		}
	}
	return t
}

// Execute is the root's one query entry point, with the single
// leader's signature and serving sequence (federation.Serve): the reuse
// tiers of req.Cache, fenced per region, in front of execute.
func (r *Router) Execute(ctx context.Context, req federation.Request) (*federation.Result, federation.ServeKind, error) {
	return federation.Serve(req, federation.Tier{
		Fence:    r.fence,
		InputDim: r.cfg.Spec.InputDim,
		Train: func() (*federation.Result, []federation.EpochStamp, error) {
			return r.execute(ctx, req)
		},
	})
}

// execute runs one query end to end across the sharded topology.
func (r *Router) execute(ctx context.Context, req federation.Request) (_ *federation.Result, _ []federation.EpochStamp, retErr error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	q, sel := req.Query, req.Selector
	start := time.Now()
	qspan := r.tracer.StartTrace("query")
	qspan.SetAttr("query", q.ID)
	qspan.SetAttr("selector", sel.Name())
	qspan.SetAttr("topology", "sharded")
	defer func() { qspan.End(retErr) }()
	r.queries.Add(1)

	// Stage 1: the selection (req.Prepared while its basis holds, else
	// planned now), then the seed draw.
	prep, t := req.Prepared, r.current(req.Prepared)
	var selectionTime time.Duration
	if t == nil {
		var err error
		if prep, t, _, err = r.plan(ctx, qspan, q, sel, false); err != nil {
			return nil, nil, err
		}
		selectionTime = prep.PlanTime
	}
	for _, st := range prep.Stamps {
		m := r.members[st.Source]
		m.routed.Add(1)
		r.metricReg.Counter("qens_region_routed_total", telemetry.Label{Key: "region", Value: m.id}).Inc()
	}
	r.regionsPruned.Add(int64(len(r.members) - len(prep.Stamps)))
	if len(prep.Stamps) == len(r.members) {
		r.spanning.Add(1)
	}
	spec := r.cfg.Spec
	spec.Seed = uint64(r.src.Int63())

	// Stage 2: initial global model at the root (exactly the
	// single-leader executor's draw), then the region train fan-out.
	initial, err := r.w0.Params(spec.Seed)
	if err != nil {
		return nil, nil, err
	}

	res := &federation.Result{
		Query:        q,
		Epoch:        prep.Epoch,
		Selector:     sel.Name(),
		Aggregation:  req.Aggregation,
		Participants: prep.Participants,
	}
	res.Stats.SamplesAllNodes = t.total
	// Training rectangles stay leader-side; the query rectangle stands
	// in for the trained subspace in the approximate tier's coverage
	// term.
	res.TrainMins, res.TrainMaxs, res.TrainDims = q.Bounds.Min, q.Bounds.Max, q.Dims()

	outs, err := r.trainFanout(ctx, qspan, t, spec, initial, res.Participants)
	if err != nil {
		return nil, nil, err
	}

	// Stage 3: collect in global participant order and aggregate —
	// the single leader's own step.
	if err := federation.Assemble(res, outs, federation.Assembly{
		Spec:             r.cfg.Spec,
		Initial:          initial,
		TolerateFailures: r.cfg.TolerateFailures,
		Span:             qspan,
	}); err != nil {
		return nil, nil, err
	}
	res.Stats.SelectionTime = selectionTime
	res.Stats.WallTime = time.Since(start)
	federation.ObserveQuery(r.metricReg, res.Selector, prep.PlanTime, len(res.Failed))
	return res, prep.Stamps, nil
}

// trainFanout groups the participants by owning region (preserving
// global participant order inside each group), issues one Train RPC
// per region concurrently, and scatters the results back into global
// participant slots as round outcomes. The region's phase span is
// re-parented under the per-region RPC span and each node's under its
// participant's train span, completing the cross-process trace.
func (r *Router) trainFanout(ctx context.Context, qspan *telemetry.SpanHandle, t *topology, spec ml.Spec, initial ml.Params, parts []selection.Participant) ([]federation.RoundOutcome, error) {
	type group struct {
		mi    int
		parts []selection.Participant
		slots []int
	}
	byMember := map[int]*group{}
	var order []int
	for gi, p := range parts {
		ref, ok := t.byNode[p.NodeID]
		if !ok {
			return nil, fmt.Errorf("region: participant %s belongs to no region", p.NodeID)
		}
		mi := ref.member
		g := byMember[mi]
		if g == nil {
			g = &group{mi: mi}
			byMember[mi] = g
			order = append(order, mi)
		}
		g.parts = append(g.parts, p)
		g.slots = append(g.slots, gi)
	}

	outs := make([]federation.RoundOutcome, len(parts))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for k, mi := range order {
		wg.Add(1)
		go func(k int, g *group) {
			defer wg.Done()
			m := r.members[g.mi]
			rspan := qspan.Child("region.train")
			rspan.SetAttr("region", m.id)
			// One root-observed "train" span per participant, as a
			// single leader records: dispatch to the region's answer,
			// with the node's error and its phase spans under it.
			tspans := make([]*telemetry.SpanHandle, 0, 4)
			for _, p := range g.parts {
				ts := rspan.Child("train")
				ts.SetAttr("node", p.NodeID)
				tspans = append(tspans, ts)
			}
			resp, err := m.svc.Train(ctx, TrainRequest{
				Spec:         spec,
				Params:       initial,
				Participants: g.parts,
				LocalEpochs:  r.cfg.LocalEpochs,
				TraceID:      rspan.Trace(),
				SpanID:       rspan.Span(),
			})
			if err == nil && len(resp.Results) != len(g.parts) {
				err = fmt.Errorf("region: %s returned %d results for %d participants", m.id, len(resp.Results), len(g.parts))
			}
			if err != nil {
				for _, ts := range tspans {
					ts.End(err)
				}
				rspan.End(err)
				errs[k] = fmt.Errorf("region: training on %s: %w", m.id, err)
				return
			}
			m.observe(resp.Epoch)
			federation.RecordRemoteSpans(r.tracer, rspan, m.id, resp.Spans)
			for j, rr := range resp.Results {
				o := &outs[g.slots[j]]
				o.NodeID, o.Elapsed = rr.NodeID, time.Duration(rr.ElapsedNS)
				if rr.Err != "" {
					o.Err = errors.New(rr.Err)
				}
				federation.RecordRemoteSpans(r.tracer, tspans[j], rr.NodeID, rr.Spans)
				tspans[j].End(o.Err)
				if o.Err != nil {
					continue
				}
				o.Resp = federation.TrainResponse{
					Params:       rr.Params,
					SamplesUsed:  rr.SamplesUsed,
					TotalSamples: rr.TotalSamples,
					TrainTime:    rr.TrainTime,
				}
			}
			rspan.End(nil)
		}(k, byMember[mi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// PlanKey is Prepare's fingerprint alone (see planKey).
func (r *Router) PlanKey(ctx context.Context, q query.Query, sel selection.Selector) (string, error) {
	p, err := r.Prepare(ctx, q, sel)
	if err != nil {
		return "", err
	}
	return r.planKey(p, sel.Name()), nil
}

// planKey renders a plan's fingerprint on demand:
// "region:epoch,…|selector|node:clusters|…", the routed regions' epoch
// basis plus the selection as plan.Plan.Key spells it.
func (r *Router) planKey(p *federation.Prepared, selector string) string {
	key := make([]byte, 0, 48+16*len(p.Participants))
	for k, st := range p.Stamps {
		if k > 0 {
			key = append(key, ',')
		}
		key = append(key, r.members[st.Source].id...)
		key = append(key, ':')
		key = strconv.AppendUint(key, st.Epoch, 10)
	}
	return string(plan.AppendSelectionKey(key, selector, p.Participants))
}

// ExplainQuery is the EXPLAIN surface behind the gateway's /v1/plan:
// the ranking shows the complete fleet, including nodes routing would
// prune; Key is what PlanKey returns for the same query.
func (r *Router) ExplainQuery(ctx context.Context, q query.Query, sel selection.Selector) (*federation.Explanation, error) {
	p, _, ranks, err := r.plan(ctx, nil, q, sel, true)
	if err != nil {
		return nil, err
	}
	return &federation.Explanation{
		Epoch:        p.Epoch,
		Selector:     sel.Name(),
		Epsilon:      plan.EpsilonFor(sel),
		Key:          r.planKey(p, sel.Name()),
		Regions:      r.Regions(),
		Participants: p.Participants,
		Rankings:     ranks,
	}, nil
}

// RegionStat is one region's routing view in RouterStats. Registry
// carries the region's own registry counters (index/prune/delta
// refresh) when the region answered its Stats RPC in time; it is nil
// for regions that failed to report — routing stats stay available
// regardless.
type RegionStat struct {
	RegionID string          `json:"region_id"`
	Nodes    int             `json:"nodes"`
	Epoch    uint64          `json:"epoch"`
	Routed   int64           `json:"routed"`
	NodeIDs  []string        `json:"node_ids,omitempty"`
	Registry *registry.Stats `json:"registry,omitempty"`
}

// RouterStats is the root coordinator's introspection block served
// under /v1/stats. Queries counts executions (a reuse-cache hit is
// none), and Spanning and RegionsPruned count within them; NoRoute
// counts at admission, where a query that routes nowhere ends.
type RouterStats struct {
	Generation    uint64       `json:"generation"`
	Queries       int64        `json:"queries"`
	Spanning      int64        `json:"spanning_fanouts"`
	NoRoute       int64        `json:"no_route_rejects"`
	RegionsPruned int64        `json:"regions_pruned"`
	Regions       []RegionStat `json:"regions"`
}

// Stats resolves the topology and reports per-region shard membership,
// routing counts, epochs and (best-effort) registry counters.
func (r *Router) Stats(ctx context.Context) (RouterStats, error) {
	t, err := r.topology(ctx)
	if err != nil {
		return RouterStats{}, err
	}
	st := RouterStats{
		Generation:    t.gen,
		Queries:       r.queries.Load(),
		Spanning:      r.spanning.Load(),
		NoRoute:       r.noRoute.Load(),
		RegionsPruned: r.regionsPruned.Load(),
	}
	reps, errs := r.regionStats(ctx)
	for i, m := range r.members {
		ids := t.infos[i].nodeIDs()
		rs := RegionStat{
			RegionID: m.id,
			Nodes:    len(ids),
			Epoch:    m.epoch.Load(),
			Routed:   m.routed.Load(),
			NodeIDs:  ids,
		}
		// Best-effort registry counters: a slow or failed region leaves
		// its block nil instead of failing the whole report.
		if errs[i] == nil {
			rs.Registry = &reps[i].Registry
		}
		st.Regions = append(st.Regions, rs)
	}
	return st, nil
}

// regionStats asks every region for its Stats concurrently.
func (r *Router) regionStats(ctx context.Context) ([]Stats, []error) {
	reps := make([]Stats, len(r.members))
	errs := make([]error, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			reps[i], errs[i] = m.svc.Stats(ctx)
		}(i, m)
	}
	wg.Wait()
	return reps, errs
}

// Describe is the topology's part of GET /v1/stats: the global roster,
// the data space (the union of every region's covering rectangle) and
// the routing view. Empty when the topology cannot be resolved.
func (r *Router) Describe(ctx context.Context) Description {
	st, err := r.Stats(ctx)
	if err != nil {
		return Description{}
	}
	t := r.topo.Load() // Stats resolved it
	return Description{Nodes: t.nodeIDs, Space: &t.space, Router: &st}
}

// Health is the topology's part of /healthz. A region that stopped
// answering Info fails the refresh within ctx; the roster size then
// comes from the last valid topology.
func (r *Router) Health(ctx context.Context) map[string]any {
	t, err := r.topology(ctx)
	if err != nil {
		t = r.topo.Load()
	}
	nodes := 0
	if t != nil {
		nodes = len(t.nodeIDs)
	}
	return map[string]any{"nodes": nodes, "regions": len(r.members)}
}

// StopPush is a no-op: the root subscribes to nothing. It learns that
// a region moved from the epoch on that region's plan and train
// responses.
func (r *Router) StopPush() {}

// Fleet gathers every region's Stats (registry state + per-node
// health) into the /v1/fleet document: one block per region, Nodes
// their concatenation.
func (r *Router) Fleet(ctx context.Context) (FleetReport, error) {
	reps, errs := r.regionStats(ctx)
	var out FleetReport
	for i, rep := range reps {
		if errs[i] != nil {
			return FleetReport{}, fmt.Errorf("region: stats from %s: %w", r.members[i].id, errs[i])
		}
		out.Regions = append(out.Regions, RegionFleet{
			RegionID:      rep.Info.RegionID,
			Nodes:         rep.Health,
			NodeIDs:       rep.Info.nodeIDs(),
			RegistryEpoch: rep.Registry.Epoch,
			RegistryStale: rep.Registry.Stale,
			TotalSamples:  rep.Info.TotalSamples,
		})
		out.Nodes = append(out.Nodes, rep.Health...)
	}
	return out, nil
}
