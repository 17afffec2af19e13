package federation

import (
	"context"
	"fmt"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Fleet bundles a leader with its in-process participant nodes plus
// the held-out test split used for scoring — the simulated edge
// environment every experiment runs on.
type Fleet struct {
	Leader *Leader
	Nodes  []*Node
	// Test is the union of every node's held-out split; per-query
	// evaluation filters it to the query rectangle.
	Test *dataset.Dataset
}

// fleetTestFraction is held out of every node's data for evaluation.
const fleetTestFraction = 0.2

// NewSimulatedFleet builds nodes node-0..node-(n-1) from the given
// datasets, holds out fleetTestFraction of each, and wires them to a
// leader via in-process clients. node-0's training split doubles as
// the leader's local data for the §II pre-test.
func NewSimulatedFleet(data []*dataset.Dataset, cfg Config) (*Fleet, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("federation: fleet needs at least one dataset")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	test := data[0].Empty()
	nodes := make([]*Node, len(data))
	clients := make([]Client, len(data))
	var leaderData *dataset.Dataset
	for i, d := range data {
		if !data[0].SameSchema(d) {
			return nil, fmt.Errorf("federation: dataset %d has a different schema", i)
		}
		train, held := d.Split(fleetTestFraction, root.Split())
		if err := test.Merge(held); err != nil {
			return nil, err
		}
		node, err := NewNode(fmt.Sprintf("node-%d", i), train, cfg.ClusterK, root.Split())
		if err != nil {
			return nil, err
		}
		nodes[i] = node
		clients[i] = LocalClient{Node: node}
		if i == 0 {
			leaderData = train
		}
	}
	leader, err := NewLeader(cfg, leaderData, clients)
	if err != nil {
		return nil, err
	}
	return &Fleet{Leader: leader, Nodes: nodes, Test: test}, nil
}

// Space returns the global data space: the union of all node bounds,
// used to draw the query workload.
func (f *Fleet) Space() (geometry.Rect, error) {
	return f.Leader.Space(context.Background())
}

// Execute trains one query on the simulated fleet — Leader.Execute
// with a background context, one round and no cache, which is what
// the experiments want.
func (f *Fleet) Execute(q query.Query, sel selection.Selector, agg Aggregation) (*Result, error) {
	res, _, err := f.Leader.Execute(context.Background(), Request{Query: q, Selector: sel, Aggregation: agg})
	return res, err
}
