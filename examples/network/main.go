// Network scenario: the same federation running over real TCP
// sockets. Five participant daemons are started on loopback ports
// (exactly what `qensd` does on separate machines), the leader dials
// them with the transport client, and a query-driven round executes
// end-to-end: cluster summaries up, model parameters down, trained
// parameters back — never raw data.
//
// The example also demonstrates the paper's communication claim: the
// byte counts show that selection costs only the one-off summary
// exchange (a few hundred bytes per node), independent of dataset
// size.
//
// Run: go run ./examples/network
package main

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
	"qens/internal/transport"
)

func main() {
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 5, SamplesPerNode: 800, Seed: 21, Heterogeneity: 0.8, FlipFraction: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Start one daemon per node on an ephemeral loopback port.
	var clients []federation.Client
	var leaderData *dataset.Dataset
	root := rng.New(99)
	for i, d := range data {
		// Hold out 20% per node for scoring on the leader side.
		train, _ := d.Split(0.2, root.Split())
		if i == 0 {
			leaderData = train
		}
		node, err := federation.NewNode(fmt.Sprintf("edge-%d", i), train, 5, root.Split())
		if err != nil {
			log.Fatal(err)
		}
		srv, err := transport.Serve(node, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		client, err := transport.Dial(srv.Addr(), transport.DialOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		fmt.Printf("daemon %s listening on %s\n", client.ID(), srv.Addr())
		clients = append(clients, client)
	}

	leader, err := federation.NewLeader(federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 6, Seed: 4,
	}, leaderData, clients)
	if err != nil {
		log.Fatal(err)
	}

	// One-off advertisement round: only cluster rectangles cross the
	// network.
	summaries, err := leader.Summaries()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncollected %d cluster summaries (K=%d each) — the only pre-query communication\n",
		len(summaries), summaries[0].K())

	bounds := summaries[0].Clusters[0].Bounds.Clone()
	for _, s := range summaries {
		for _, c := range s.Clusters {
			bounds = bounds.Union(c.Bounds)
		}
	}
	q, err := query.Uniform(bounds, rng.New(17))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executing %s over %v\n", q.ID, q.Bounds)

	res, _, err := leader.Execute(context.Background(), federation.Request{
		Query:       q,
		Selector:    selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		Aggregation: federation.WeightedAveraging,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected over TCP: ")
	for _, p := range res.Participants {
		fmt.Printf("%s ", p.NodeID)
	}
	fmt.Printf("\nmodel bytes up/down: %d / %d (raw data bytes moved: 0)\n",
		res.Stats.BytesUp, res.Stats.BytesDown)
	fmt.Printf("federated model ready; prediction at query center: %.1f\n",
		res.Ensemble.Predict(q.Bounds.Center()[:1]))
}
