package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Query-reuse experiment (extension, after the paper's reference [5]):
// under a focused dynamic workload — queries that dwell in a region
// before drifting — how often can a cached per-query model answer the
// next query, and what does that save?

// ReuseResult summarizes the with-cache run against the no-cache
// baseline on the same workload.
type ReuseResult struct {
	Queries int
	// HitRate is cache hits / executed queries.
	HitRate float64
	// TimeWithCache / TimeWithoutCache are total wall-clock training
	// times.
	TimeWithCache    time.Duration
	TimeWithoutCache time.Duration
	// SamplesWithCache / SamplesWithoutCache are the summed samples
	// trained on: the deterministic count behind the time saving.
	SamplesWithCache    int
	SamplesWithoutCache int
	// LossWithCache / LossWithoutCache are mean per-query test MSEs;
	// reuse trades a little accuracy (an old model answers a nearby
	// query) for large time savings.
	LossWithCache    float64
	LossWithoutCache float64
}

// String renders the comparison.
func (r ReuseResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query reuse over %d focused queries\n", r.Queries)
	fmt.Fprintf(&b, "hit rate        %.1f%%\n", 100*r.HitRate)
	fmt.Fprintf(&b, "train time      with cache %-12s without %s\n", r.TimeWithCache, r.TimeWithoutCache)
	fmt.Fprintf(&b, "trained samples with cache %-12d without %d\n", r.SamplesWithCache, r.SamplesWithoutCache)
	fmt.Fprintf(&b, "mean loss       with cache %-12.2f without %.2f\n", r.LossWithCache, r.LossWithoutCache)
	return b.String()
}

// Reuse runs the experiment. MinIoU 0.5 serves a query whenever a
// cached query covers at least half of its (union) extent.
func Reuse(opts Options) (*ReuseResult, error) {
	opts = opts.WithDefaults()
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	space, err := env.Fleet.Space()
	if err != nil {
		return nil, err
	}
	// A focused workload: the generator dwells on a region for a
	// stretch of queries before jumping (the [18] dynamic pattern).
	workload, err := query.Workload(query.WorkloadConfig{
		Space:       space,
		Count:       opts.Queries,
		DriftPeriod: max(2, opts.Queries/3),
		FocusSpread: 0.03,
	}, rng.New(opts.Seed+9))
	if err != nil {
		return nil, err
	}
	sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
	cache, err := federation.NewReuseCache(0.5, 16)
	if err != nil {
		return nil, err
	}

	out := &ReuseResult{}
	hits := 0
	lossCached, lossFresh := 0.0, 0.0
	scoredCached, scoredFresh := 0, 0
	for _, q := range workload {
		res, kind, err := env.Fleet.Leader.Execute(context.Background(), federation.Request{
			Query: q, Selector: sel, Aggregation: federation.WeightedAveraging, Cache: cache,
		})
		if err != nil {
			continue
		}
		out.Queries++
		if kind.Reused() {
			hits++
		} else {
			out.TimeWithCache += res.Stats.TrainTime
			out.SamplesWithCache += res.Stats.SamplesUsed
		}
		// Score the served model on THIS query's test subspace.
		served := *res
		served.Query = q
		if mse, _, ok := federation.EvaluateResult(&served, env.Fleet.Test); ok {
			lossCached += mse
			scoredCached++
		}

		// Baseline: always train fresh.
		fresh, err := env.Fleet.Execute(q, sel, federation.WeightedAveraging)
		if err != nil {
			continue
		}
		out.TimeWithoutCache += fresh.Stats.TrainTime
		out.SamplesWithoutCache += fresh.Stats.SamplesUsed
		if mse, _, ok := federation.EvaluateResult(fresh, env.Fleet.Test); ok {
			lossFresh += mse
			scoredFresh++
		}
	}
	if out.Queries == 0 || scoredCached == 0 || scoredFresh == 0 {
		return nil, fmt.Errorf("experiments: reuse run produced no evaluable queries")
	}
	out.HitRate = float64(hits) / float64(out.Queries)
	out.LossWithCache = lossCached / float64(scoredCached)
	out.LossWithoutCache = lossFresh / float64(scoredFresh)
	return out, nil
}
