package experiments

import (
	"fmt"
	"strings"

	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/selection"
)

// The model-drift / catastrophic-forgetting experiment behind the
// paper's motivation (§I): "distributed learning models are more
// likely to forget what they have learned from previous participants
// when they move to new participants with different data
// distributions", and the selection mechanism exists "to reduce the
// model drift and model forgetting chances that could happen due to
// training the model on irrelevant data."
//
// One model travels node-to-node sequentially (pure incremental
// training, no aggregation). Along the query-driven path it visits
// only the selected nodes' supporting clusters; along the naive path
// it visits every node's whole dataset. After each visit the loss on
// the query's held-out subspace is recorded: visiting an irrelevant
// (e.g. sign-flipped) node drags the naive trajectory up — that jump
// is the drift the mechanism avoids.

// DriftResult holds both trajectories for one query.
type DriftResult struct {
	QueryID string
	// QueryDrivenPath / NaivePath list visited node ids in order.
	QueryDrivenPath []string
	NaivePath       []string
	// QueryDrivenLoss / NaiveLoss record the query-subspace test
	// loss after each visit.
	QueryDrivenLoss []float64
	NaiveLoss       []float64
}

// String renders the two trajectories.
func (r DriftResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Model drift under sequential training (query %s)\n", r.QueryID)
	b.WriteString("query-driven path:\n")
	for i, id := range r.QueryDrivenPath {
		fmt.Fprintf(&b, "  after %-8s loss=%.2f\n", id, r.QueryDrivenLoss[i])
	}
	b.WriteString("naive all-node path:\n")
	for i, id := range r.NaivePath {
		fmt.Fprintf(&b, "  after %-8s loss=%.2f\n", id, r.NaiveLoss[i])
	}
	return b.String()
}

// FinalLosses returns the last loss of each trajectory.
func (r DriftResult) FinalLosses() (queryDriven, naive float64) {
	return r.QueryDrivenLoss[len(r.QueryDrivenLoss)-1], r.NaiveLoss[len(r.NaiveLoss)-1]
}

// MaxNaiveRegression returns the largest single-visit loss increase on
// the naive path — the forgetting jump caused by an irrelevant node.
func (r DriftResult) MaxNaiveRegression() float64 {
	worst := 0.0
	for i := 1; i < len(r.NaiveLoss); i++ {
		if d := r.NaiveLoss[i] - r.NaiveLoss[i-1]; d > worst {
			worst = d
		}
	}
	return worst
}

// Drift runs the experiment on the first workload query that is
// supported by at least two nodes and covered by test data.
func Drift(opts Options) (*DriftResult, error) {
	opts = opts.WithDefaults()
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	summaries, err := env.Fleet.Leader.Summaries()
	if err != nil {
		return nil, err
	}
	spec := env.Fleet.Leader.Config().Spec

	for _, q := range env.Queries {
		test := env.Fleet.Test.FilterInRect(q.Bounds)
		if test.Len() < 10 {
			continue
		}
		ranks, err := selection.RankNodes(q, summaries, opts.Epsilon)
		if err != nil {
			return nil, err
		}
		selection.SortByRank(ranks)
		var chosen []selection.NodeRank
		for _, r := range ranks {
			if r.Rank > 0 {
				chosen = append(chosen, r)
			}
		}
		if len(chosen) < 2 {
			continue
		}
		if len(chosen) > opts.TopL {
			chosen = chosen[:opts.TopL]
		}

		out := &DriftResult{QueryID: q.ID}
		evalLoss := func(p ml.Params) (float64, error) {
			m, err := spec.New()
			if err != nil {
				return 0, err
			}
			if err := m.SetParams(p); err != nil {
				return 0, err
			}
			return ml.Loss(m, test), nil
		}

		// Query-driven path: ranked nodes, supporting clusters only.
		model, err := spec.New()
		if err != nil {
			return nil, err
		}
		current := model.Params()
		for _, r := range chosen {
			node := findNode(env.Fleet, r.NodeID)
			if node == nil {
				return nil, fmt.Errorf("experiments: node %s not found", r.NodeID)
			}
			resp, err := node.Train(federation.TrainRequest{
				Spec: spec, Params: current,
				Clusters: r.Supporting, LocalEpochs: opts.LocalEpochs,
			})
			if err != nil {
				return nil, err
			}
			current = resp.Params
			loss, err := evalLoss(current)
			if err != nil {
				return nil, err
			}
			out.QueryDrivenPath = append(out.QueryDrivenPath, r.NodeID)
			out.QueryDrivenLoss = append(out.QueryDrivenLoss, loss)
		}

		// Naive path: every node in roster order, whole datasets.
		model2, err := spec.New()
		if err != nil {
			return nil, err
		}
		current = model2.Params()
		for _, node := range env.Fleet.Nodes {
			resp, err := node.Train(federation.TrainRequest{
				Spec: spec, Params: current, LocalEpochs: opts.LocalEpochs,
			})
			if err != nil {
				return nil, err
			}
			current = resp.Params
			loss, err := evalLoss(current)
			if err != nil {
				return nil, err
			}
			out.NaivePath = append(out.NaivePath, node.ID())
			out.NaiveLoss = append(out.NaiveLoss, loss)
		}
		return out, nil
	}
	return nil, fmt.Errorf("experiments: no query suitable for the drift experiment")
}
