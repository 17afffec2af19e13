package experiments

import (
	"context"
	"fmt"
	"strings"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Temporal (prequential) evaluation: the corpus is hourly sensor data,
// so the realistic protocol trains on the past and scores on the
// future — a shuffled split leaks future hours into training and
// flatters every mechanism equally. This experiment rebuilds the fleet
// with per-node temporal splits and re-runs the query-driven vs random
// comparison; the mechanism's advantage must survive the harder
// protocol.

// TemporalResult compares mechanisms under the time-ordered protocol.
type TemporalResult struct {
	// Losses maps mechanism -> mean per-query future-data MSE.
	Losses map[string]float64
	// Executed maps mechanism -> evaluable query count.
	Executed map[string]int
}

// String renders the comparison.
func (r TemporalResult) String() string {
	var b strings.Builder
	b.WriteString("Temporal (train-on-past, test-on-future) evaluation\n")
	for _, m := range []string{"random", "weighted"} {
		fmt.Fprintf(&b, "%-10s loss=%.2f (%d queries)\n", m, r.Losses[m], r.Executed[m])
	}
	return b.String()
}

// Temporal runs the experiment.
func Temporal(opts Options) (*TemporalResult, error) {
	opts = opts.WithDefaults()
	data, err := dataset.PaperNodeDatasets(opts.datasetConfig())
	if err != nil {
		return nil, err
	}
	// Per-node temporal split: past 80% trains, future 20% tests.
	trains := make([]*dataset.Dataset, len(data))
	test := data[0].Empty()
	for i, d := range data {
		past, future := d.SplitTemporal(0.2)
		trains[i] = past
		if err := test.Merge(future); err != nil {
			return nil, err
		}
	}
	spec := ml.PaperLR(1)
	if opts.Model == ml.KindNN {
		spec = ml.PaperNN(1)
	}
	root := rng.New(opts.Seed + 3)
	nodes := make([]federation.Client, len(trains))
	for i, d := range trains {
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i), d, opts.ClusterK, root.Split())
		if err != nil {
			return nil, err
		}
		nodes[i] = federation.LocalClient{Node: n}
	}
	leader, err := federation.NewLeader(federation.Config{
		Spec: spec, ClusterK: opts.ClusterK, LocalEpochs: opts.LocalEpochs, Seed: opts.Seed + 4,
	}, trains[0], nodes)
	if err != nil {
		return nil, err
	}
	space, err := leader.Space(context.Background())
	if err != nil {
		return nil, err
	}
	workload, err := query.Workload(query.WorkloadConfig{Space: space, Count: opts.Queries}, rng.New(opts.Seed+5))
	if err != nil {
		return nil, err
	}

	res := &TemporalResult{Losses: map[string]float64{}, Executed: map[string]int{}}
	arms := []struct {
		name string
		sel  selection.Selector
		agg  federation.Aggregation
	}{
		{"random", selection.Random{L: opts.TopL}, federation.ModelAveraging},
		{"weighted", selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}, federation.WeightedAveraging},
	}
	for _, arm := range arms {
		s := runStream(leader, workload, arm.sel, arm.agg, test)
		if s.scored == 0 {
			return nil, fmt.Errorf("experiments: temporal arm %s executed no queries", arm.name)
		}
		res.Losses[arm.name] = s.meanLoss()
		res.Executed[arm.name] = s.scored
	}
	return res, nil
}
