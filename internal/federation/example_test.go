package federation_test

import (
	"context"
	"fmt"
	"log"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Example demonstrates the complete per-query pipeline on a simulated
// fleet: generate heterogeneous node data, select participants with
// the query-driven mechanism, train over supporting clusters, and
// aggregate predictions with ranking weights.
func Example() {
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 6, SamplesPerNode: 600, Seed: 42, Heterogeneity: 0.8, FlipFraction: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 5, Seed: 7,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	space, err := fleet.Space()
	if err != nil {
		log.Fatal(err)
	}
	q, err := query.Uniform(space, rng.New(3))
	if err != nil {
		log.Fatal(err)
	}
	res, err := fleet.Execute(q,
		selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		federation.WeightedAveraging)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d participants, used %.0f%% of federation data\n",
		len(res.Participants), 100*res.Stats.DataFraction())
	// Output: selected 2 participants, used 9% of federation data
}

// ExampleLeader_Execute shows multi-round FedAvg training: the leader
// re-distributes the parameter average between rounds and the
// per-round deltas trace convergence.
func ExampleLeader_Execute() {
	data, _ := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 4, SamplesPerNode: 400, Seed: 5,
	})
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 3, Seed: 2,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	space, _ := fleet.Space()
	q, _ := query.Uniform(space, rng.New(9))
	res, _, err := fleet.Leader.Execute(context.Background(), federation.Request{
		Query:    q,
		Selector: selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		Rounds:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rounds=%d, single global model: %v\n", len(res.RoundDeltas), res.Ensemble.Size() == 1)
	// Output: rounds=3, single global model: true
}
