// Package experiments reproduces every table and figure of the
// paper's evaluation (§V) on the synthetic air-quality corpus:
// Tables I/II (all-node vs random loss under homogeneous and
// heterogeneous data), Fig. 6 (query vs node data spaces), Fig. 7
// (average loss of GT / Random / Averaging / Weighted), Fig. 8
// (training time with and without query-driven selectivity) and
// Fig. 9 (fraction of data used per query), plus the K/ε/ℓ ablations
// referenced in DESIGN.md. Each experiment is a pure function from an
// Options value to a structured result with a textual rendering, so
// the CLI, the benches and the tests all share one implementation.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Options scales an experiment. The zero value is filled with the
// paper's settings (10 nodes, 2000 samples, K=5, 200 queries); tests
// and quick runs shrink it.
type Options struct {
	// Seed drives every stochastic choice.
	Seed uint64
	// Nodes is the number of edge nodes (paper: 10).
	Nodes int
	// SamplesPerNode is the per-node dataset size (default 2000).
	SamplesPerNode int
	// Queries is the workload length (paper: 200 for Fig. 7, 20 for
	// Figs. 8-9).
	Queries int
	// ClusterK is the per-node k-means K (paper: 5).
	ClusterK int
	// Epsilon is the ε supporting-cluster threshold (default 0.6:
	// with the paper's 2-D node data spaces, Eq. 2 gives h = 0.5 to a
	// cluster that overlaps in only one of the two dimensions, so a
	// binding threshold must exceed 0.5; the paper does not state its
	// own ε).
	Epsilon float64
	// TopL is the ℓ of top-ℓ selection (default 3).
	TopL int
	// LocalEpochs is the paper's E local rounds (default 5).
	LocalEpochs int
	// Model selects "linear" or "nn" (default "linear").
	Model string
	// Heterogeneity in [0,1] controls site divergence (default the
	// corpus default 0.6); Tables I/II override it.
	Heterogeneity float64
	// FlipFraction is the share of sign-flipped sites (default per
	// corpus default when heterogeneity is high).
	FlipFraction float64
}

// WithDefaults fills unset fields with the paper-scale values.
func (o Options) WithDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 10
	}
	if o.SamplesPerNode == 0 {
		o.SamplesPerNode = 2000
	}
	if o.Queries == 0 {
		o.Queries = 200
	}
	if o.ClusterK == 0 {
		o.ClusterK = 5
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.6
	}
	if o.TopL == 0 {
		o.TopL = 3
	}
	if o.LocalEpochs == 0 {
		o.LocalEpochs = 5
	}
	if o.Model == "" {
		o.Model = ml.KindLinear
	}
	if o.Heterogeneity == 0 {
		o.Heterogeneity = 0.6
	}
	if o.FlipFraction == 0 && o.Heterogeneity > 0.5 {
		o.FlipFraction = 0.2
	}
	return o
}

// Quick fills unset scale fields with qens -quick's reduced run: 6
// nodes, 500 samples per node, 20 queries.
func (o Options) Quick() Options {
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.SamplesPerNode == 0 {
		o.SamplesPerNode = 500
	}
	if o.Queries == 0 {
		o.Queries = 20
	}
	return o
}

// datasetConfig maps the options onto the synthetic corpus generator.
func (o Options) datasetConfig() dataset.Config {
	return dataset.Config{
		Nodes:          o.Nodes,
		SamplesPerNode: o.SamplesPerNode,
		Seed:           o.Seed,
		Heterogeneity:  o.Heterogeneity,
		FlipFraction:   o.FlipFraction,
	}
}

// modelSpec builds the Table III spec for the chosen model over the
// paper's 1-feature node datasets.
func (o Options) modelSpec() (ml.Spec, error) {
	switch o.Model {
	case ml.KindLinear:
		return ml.PaperLR(1), nil
	case ml.KindNN:
		return ml.PaperNN(1), nil
	default:
		return ml.Spec{}, fmt.Errorf("experiments: unknown model %q", o.Model)
	}
}

// Environment is a ready-to-run simulated edge deployment: the fleet
// plus a deterministic query workload over its global data space.
type Environment struct {
	Opts    Options
	Fleet   *federation.Fleet
	Queries []query.Query
}

// NewEnvironment generates the corpus, builds the fleet and draws the
// query workload.
func NewEnvironment(opts Options) (*Environment, error) {
	opts = opts.WithDefaults()
	spec, err := opts.modelSpec()
	if err != nil {
		return nil, err
	}
	data, err := dataset.PaperNodeDatasets(opts.datasetConfig())
	if err != nil {
		return nil, err
	}
	cfg := federation.Config{
		Spec:        spec,
		ClusterK:    opts.ClusterK,
		LocalEpochs: opts.LocalEpochs,
		Seed:        opts.Seed + 1,
	}
	fleet, err := federation.NewSimulatedFleet(data, cfg)
	if err != nil {
		return nil, err
	}
	space, err := fleet.Space()
	if err != nil {
		return nil, err
	}
	queries, err := query.Workload(query.WorkloadConfig{
		Space: space,
		Count: opts.Queries,
	}, rng.New(opts.Seed+2))
	if err != nil {
		return nil, err
	}
	return &Environment{Opts: opts, Fleet: fleet, Queries: queries}, nil
}

// meanLoss executes every query with the given selector/aggregation
// and averages the per-query test MSE over the query subspace; queries
// with no test data or no candidate nodes are skipped (and counted).
func (e *Environment) meanLoss(sel selection.Selector, agg federation.Aggregation) (mean float64, scored int, err error) {
	s := runStream(e.Fleet.Leader, e.Queries, sel, agg, e.Fleet.Test)
	if s.scored == 0 {
		return 0, 0, fmt.Errorf("experiments: no query produced an evaluable result")
	}
	return s.meanLoss(), s.scored, nil
}

// stream is one query stream's outcome under one selector and
// aggregation.
type stream struct {
	// results are the executed queries' results, in workload order.
	results []*federation.Result
	// scored counts the results with test data inside their query
	// rectangle; loss sums their test MSEs.
	scored int
	loss   float64
	// frac sums the data fraction over every executed query,
	// scoredFrac over the scored ones only.
	frac, scoredFrac float64
	// mse is the test MSE of each scored query, by query ID.
	mse map[string]float64
}

// runStream executes the queries through l in order, skips the ones
// that fail (e.g. no node supports the query), and scores each result
// against test.
func runStream(l *federation.Leader, queries []query.Query, sel selection.Selector, agg federation.Aggregation, test *dataset.Dataset) *stream {
	s := &stream{mse: make(map[string]float64)}
	for _, q := range queries {
		res, _, err := l.Execute(context.Background(), federation.Request{Query: q, Selector: sel, Aggregation: agg})
		if err != nil {
			continue
		}
		s.results = append(s.results, res)
		s.frac += res.Stats.DataFraction()
		if mse, _, ok := federation.EvaluateResult(res, test); ok {
			s.scored++
			s.loss += mse
			s.scoredFrac += res.Stats.DataFraction()
			s.mse[q.ID] = mse
		}
	}
	return s
}

// errNoneExecuted reports a stream in which every query failed.
var errNoneExecuted = errors.New("experiments: no query in the workload executed")

// meanLoss is the mean test MSE over the scored queries, 0 if none.
func (s *stream) meanLoss() float64 {
	if s.scored == 0 {
		return 0
	}
	return s.loss / float64(s.scored)
}
