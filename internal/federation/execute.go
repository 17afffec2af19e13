package federation

import (
	"context"
	"errors"
	"sync"
	"time"

	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Request is one query handed to Leader.Execute.
type Request struct {
	Query       query.Query
	Selector    selection.Selector
	Aggregation Aggregation
	// Cache, when non-nil, fronts training with the reuse tiers: exact
	// IoU reuse, then (when the cache enables it) the approximate
	// model-answer tier with its deterministic probe schedule. Fresh
	// results are stored back. Reuse is keyed by (selector name,
	// aggregation) and limited to selection.Deterministic selectors; a
	// nil Selector looks up unkeyed.
	Cache *ReuseCache
	// CacheOnly answers from Cache or fails with ErrNotCached — no
	// planning, no training, no probe. The gateway asks this for a
	// query nobody can train before rejecting it: a cached ensemble may
	// still cover a rectangle no current advertisement supports.
	CacheOnly bool
	// Prepared, when non-nil, is the selection stage already run for this
	// query (the gateway plans at admission). Execute trains from it while
	// its basis is still current and plans afresh otherwise.
	Prepared *Prepared
}

// Prepared is a selection stage's outcome. It owns its memory, so a
// request that is shed, cancelled or coalesced away just drops it. The
// gateway prepares every query it admits: it serves only deterministic
// selectors, whose planning consumes no draw that execution owns.
type Prepared struct {
	Participants []selection.Participant
	// Epoch is the basis the participants were ranked against: the
	// leader's snapshot epoch; under the root router the topology
	// generation, with Stamps the routed regions' epochs.
	Epoch  uint64
	Stamps []EpochStamp
	// PlanTime is how long ranking and selection took (qens_selection_ms).
	PlanTime time.Duration

	snap *registry.Snapshot // leader: where the training rectangles are cut from
}

// ErrNotCached is a CacheOnly request's miss.
var ErrNotCached = errors.New("federation: not answerable from the reuse cache")

// Tier is what a serving tier — the single leader, the root router —
// brings to Serve: its validity basis and its training path.
type Tier struct {
	Fence Fence
	// InputDim is the model's feature count (probe scoring).
	InputDim int
	// Train executes the query for real. The stamps it returns pin the
	// result under a vector Fence; nil under the scalar one.
	Train func() (*Result, []EpochStamp, error)
}

// Serve is the adaptive serving sequence every tier runs: exact reuse →
// approximate model-answer → (every ProbeEvery-th servable query) a
// ground-truth probe → fresh training → store. Cache hits are served
// without consulting any context since they cost nothing. A cache whose
// approximate tier is disabled makes exactly the lookups and stores of
// plain exact-IoU reuse, so seeded replays stay bit-exact.
func Serve(req Request, t Tier) (*Result, ServeKind, error) {
	c := req.Cache
	key := reuseKey{}
	if req.Selector != nil {
		if !selection.Deterministic(req.Selector) {
			c = nil
		}
		key = reuseKey{req.Selector.Name(), req.Aggregation}
	}
	kind := ServeFresh
	var probed *cacheEntry // approx-servable entry this query probes
	if c != nil {
		if hit, ok := c.lookup(req.Query, key, t.Fence); ok {
			return hit, ServeExact, nil
		}
		if c.approx.Enabled() {
			ent, ok := c.lookupApprox(req.Query, key, t.Fence)
			switch {
			case !ok:
				if !req.CacheOnly {
					c.recordFallback()
				}
			case !req.CacheOnly && c.probeDue():
				probed, kind = ent, ServeProbe
			default:
				c.recordApproxHit(ent)
				return ent.res, ServeApprox, nil
			}
		}
	}
	if req.CacheOnly {
		return nil, ServeFresh, ErrNotCached
	}
	res, stamps, err := t.Train()
	if err != nil {
		if probed == nil {
			return nil, ServeFresh, err
		}
		// The probe's training failed; the cached answer still clears
		// the bound, so serve it rather than surfacing the error.
		c.recordApproxHit(probed)
		return probed.res, ServeApprox, nil
	}
	if probed != nil {
		realized := ensembleDivergence(probed.res.Ensemble, res.Ensemble, req.Query, t.InputDim)
		c.recordProbe(probed, realized)
	}
	if c != nil {
		c.store(res, stamps, t.Fence)
	}
	return res, kind, nil
}

// Execute runs the paper's §IV-B query once — plan the participants
// (Eq. 2–4), draw the initial global model, one Round of local
// training, Assemble (Eq. 5–7) — behind Serve's reuse tiers, and
// reports which tier answered. It is the leader's one query entry
// point; the cache and a prepared plan are fields of Request.
//
// The context is consulted before selection and before every
// participant's training and handed to each participant client, so an
// expired query aborts instead of occupying the fleet. Cache lookups
// are fenced by the registry's reuse epoch: after InvalidateSummaries
// or a node drift signal, results trained against the old
// advertisements stop matching.
func (l *Leader) Execute(ctx context.Context, req Request) (*Result, ServeKind, error) {
	return Serve(req, Tier{
		Fence:    Fence{Epoch: l.reg.ReuseEpoch()},
		InputDim: l.cfg.Spec.InputDim,
		Train: func() (*Result, []EpochStamp, error) {
			res, err := l.train(ctx, req)
			return res, nil, err
		},
	})
}

// Prepare runs the selection stage alone and copies the outcome out of
// the planner's arenas. No training RPC is issued.
func (l *Leader) Prepare(ctx context.Context, q query.Query, sel selection.Selector) (*Prepared, error) {
	return l.prepare(ctx, nil, q, sel)
}

func (l *Leader) prepare(ctx context.Context, qspan *telemetry.SpanHandle, q query.Query, sel selection.Selector) (*Prepared, error) {
	start := time.Now()
	pl, err := l.plan(ctx, qspan, q, sel, false)
	if err != nil {
		return nil, err
	}
	defer pl.Release()
	return &Prepared{
		Participants: pl.CopyParticipants(), Epoch: pl.Epoch,
		snap: pl.Snapshot(), PlanTime: time.Since(start),
	}, nil
}

// train is Execute past the cache: the selection stage — req.Prepared
// while the registry still reports the epoch it was ranked against (the
// reuse fence's comparison), planned now otherwise — then the I/O-bound
// round. With a tracer installed it emits one trace of selection (when
// it planned), per-node train and aggregation spans.
func (l *Leader) train(ctx context.Context, req Request) (_ *Result, retErr error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	qspan := l.startQuerySpan(req.Query, req.Selector)
	defer func() { qspan.End(retErr) }()

	prep := req.Prepared
	var selectionTime time.Duration
	if prep == nil || prep.snap == nil || prep.Epoch != l.reg.ReuseEpoch() {
		var err error
		if prep, err = l.prepare(ctx, qspan, req.Query, req.Selector); err != nil {
			return nil, err
		}
		selectionTime = prep.PlanTime
	}

	// Initial global model w. Only its parameters travel: nodes seed
	// their own models, so they are sent the configured spec.
	initial, err := l.w0.Params(uint64(l.src.Int63()))
	if err != nil {
		return nil, err
	}

	res := &Result{
		Query:        req.Query,
		Epoch:        prep.Epoch,
		Selector:     req.Selector.Name(),
		Aggregation:  req.Aggregation,
		Participants: prep.Participants,
	}
	res.Stats.SamplesAllNodes = prep.snap.TotalSamples
	captureTrainingBounds(res, prep.snap)
	outs := l.Round(ctx, RoundRequest{
		Spec:         l.cfg.Spec,
		Params:       initial,
		Participants: res.Participants,
		LocalEpochs:  l.cfg.LocalEpochs,
		Parent:       qspan,
	})
	if outs == nil {
		return nil, ctx.Err()
	}
	if err := Assemble(res, outs, Assembly{
		Spec:             l.cfg.Spec,
		Initial:          initial,
		TolerateFailures: l.cfg.TolerateFailures,
		Span:             qspan,
	}); err != nil {
		return nil, err
	}
	res.Stats.SelectionTime = selectionTime
	res.Stats.WallTime = time.Since(start)
	ObserveQuery(l.metrics, res.Selector, prep.PlanTime, len(res.Failed))
	return res, nil
}

// captureTrainingBounds copies the supporting-cluster rectangles of
// every participant out of the plan snapshot into the Result. A
// participant with a nil cluster directive trains on its whole dataset,
// so all of its advertised cluster rectangles count. The rectangles are
// walked twice, to count and then to copy into one buffer sized once;
// the copy never touches the RNG, so seeded replays are unaffected.
func captureTrainingBounds(res *Result, snap *registry.Snapshot) {
	d := snap.Dims
	walk := func(visit func(lo, hi []float64)) {
		for _, p := range res.Participants {
			g := snap.Node(p.NodeID)
			switch {
			case g == nil || d <= 0:
			case p.Clusters == nil:
				visit(g.Mins, g.Maxs)
			default:
				for _, k := range p.Clusters {
					if k >= 0 && (k+1)*d <= len(g.Mins) {
						visit(g.Mins[k*d:(k+1)*d], g.Maxs[k*d:(k+1)*d])
					}
				}
			}
		}
	}
	n := 0
	walk(func(lo, _ []float64) { n += len(lo) })
	if n == 0 {
		return
	}
	buf := make([]float64, 2*n)
	mins, maxs := buf[:0:n], buf[n:n]
	walk(func(lo, hi []float64) { mins, maxs = append(mins, lo...), append(maxs, hi...) })
	res.TrainMins, res.TrainMaxs, res.TrainDims = mins, maxs, d
}

// InitialModel draws the initial global model w0 of one spec from a
// pooled model: Reinit makes it, bit for bit, the model spec.New builds
// with the drawn seed (the guarantee the node engine's model pool rests
// on too), without a fresh weight, optimizer and generator arena per
// query. It is safe for concurrent use.
type InitialModel struct {
	spec ml.Spec
	pool sync.Pool // ml.Model of spec
}

// NewInitialModel returns the w0 source for spec.
func NewInitialModel(spec ml.Spec) *InitialModel { return &InitialModel{spec: spec} }

// Params returns the parameters of the model spec.New builds with Seed
// seed; the caller owns them.
func (m *InitialModel) Params(seed uint64) (ml.Params, error) {
	model, _ := m.pool.Get().(ml.Model)
	if model == nil {
		spec := m.spec
		spec.Seed = seed
		var err error
		if model, err = spec.New(); err != nil {
			return ml.Params{}, err
		}
	} else if err := model.Reinit(seed, ml.Params{}); err != nil {
		return ml.Params{}, err
	}
	p := model.Params()
	m.pool.Put(model)
	return p, nil
}
