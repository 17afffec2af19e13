package region

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// benchServiceTime models the node-side cost of one training round in
// a deployed fleet: the round runs on the edge node's own CPU and
// crosses the network, so from the coordinator's side it is I/O — a
// wait, not local compute. Charging it as a fixed delay makes the
// benchmark measure what the topologies actually differ in (how much
// node service time the coordinator can overlap) independent of how
// many cores the benchmark host happens to have.
const benchServiceTime = 2 * time.Millisecond

// remoteishClient wraps an in-process node with the training service
// time of a remote one.
type remoteishClient struct {
	federation.LocalClient
}

func (c remoteishClient) Train(ctx context.Context, req federation.TrainRequest) (federation.TrainResponse, error) {
	select {
	case <-time.After(benchServiceTime):
	case <-ctx.Done():
		return federation.TrainResponse{}, ctx.Err()
	}
	return c.LocalClient.Train(ctx, req)
}

// benchSlabs is the serving-benchmark fleet layout: 8 nodes on
// adjacent x-slabs so a 2-region split puts 4 nodes in each shard.
var benchSlabs = [][2]float64{
	{0, 7}, {8, 15}, {16, 23}, {24, 31}, {32, 39}, {40, 47}, {48, 55}, {56, 63},
}

// benchNodes builds the benchmark fleet with enough local data that a
// training round dominates the coordination overhead — the regime the
// sharded topology exists for. Seeds depend only on the index, so the
// single-leader and sharded builds see bit-identical nodes.
func benchNodes(b *testing.B, samples int) []*federation.Node {
	b.Helper()
	nodes := make([]*federation.Node, len(benchSlabs))
	for i, s := range benchSlabs {
		d := lineData(samples, 2, 1, s[0], s[1], 10+uint64(i))
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i), d, 3, rng.New(1000+uint64(i)))
		if err != nil {
			b.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
	}
	return nodes
}

func benchConfig() federation.Config {
	return federation.Config{Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 5, Seed: 42}
}

// benchSingle wires the fleet under one leader (Leader.Execute: plan,
// then one sequential round per participant).
func benchSingle(b *testing.B, samples int) *federation.Leader {
	b.Helper()
	nodes := benchNodes(b, samples)
	clients := make([]federation.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = remoteishClient{federation.LocalClient{Node: n}}
	}
	lead, err := federation.NewLeader(benchConfig(), nil, clients)
	if err != nil {
		b.Fatal(err)
	}
	return lead
}

// benchSharded wires the same fleet as `regions` spatial shards under
// a root Router (the gateway's sharded path: route, fan plan/train
// out per region, aggregate at the root).
func benchSharded(b *testing.B, samples, regions int) *Router {
	b.Helper()
	nodes := benchNodes(b, samples)
	summaries := make([]cluster.NodeSummary, len(nodes))
	rosterIndex := make(map[string]int, len(nodes))
	for i, n := range nodes {
		summaries[i] = n.Summary()
		rosterIndex[n.ID()] = i
	}
	shards, err := Partition(summaries, regions)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	services := make([]Service, 0, regions)
	for r, shard := range shards {
		clients := make([]federation.Client, 0, len(shard))
		for _, idx := range shard {
			clients = append(clients, remoteishClient{federation.LocalClient{Node: nodes[idx]}})
		}
		fed, err := federation.NewLeader(cfg, nil, clients)
		if err != nil {
			b.Fatal(err)
		}
		lead, err := NewLeader(fmt.Sprintf("region-%d", r), fed, rosterIndex)
		if err != nil {
			b.Fatal(err)
		}
		services = append(services, lead)
	}
	router, err := NewRouter(Config{Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed}, services)
	if err != nil {
		b.Fatal(err)
	}
	return router
}

// BenchmarkShardServe compares the two gateway serving paths over the
// same 8-node fleet and workload: a single leader executing queries
// through the plan-then-sequential-round pipeline (Leader.Execute)
// versus the root coordinator fanning the same queries out to
// regional leaders that each train their shard concurrently
// (Router.Execute). The workload mixes
// spanning rectangles (fan out everywhere) with half-space ones
// (routing prunes to one region), mirroring what qensload generates.
// Node rounds carry benchServiceTime of modeled remote service time,
// so the numbers reflect coordination overlap rather than the
// benchmark host's core count.
//
// scripts/bench_shard.sh gates on the ratio: the 2-region topology
// must serve at least 1.6x the single-leader throughput.
func BenchmarkShardServe(b *testing.B) {
	const samples = 400
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 8}
	queries := []query.Query{
		mustQuery(b, "span", 1, 62, -500, 500),  // covers both shards
		mustQuery(b, "left", 1, 28, -500, 500),  // left shard only
		mustQuery(b, "span2", 5, 58, -500, 500), // covers both shards
		mustQuery(b, "right", 36, 62, -500, 500),
	}
	ctx := context.Background()

	b.Run("topology=single", func(b *testing.B) {
		lead := benchSingle(b, samples)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := lead.Execute(ctx, federation.Request{Query: queries[i%len(queries)], Selector: sel, Aggregation: federation.WeightedAveraging}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, regions := range []int{2} {
		b.Run(fmt.Sprintf("topology=%dregion", regions), func(b *testing.B) {
			router := benchSharded(b, samples, regions)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := router.Execute(ctx, federation.Request{Query: queries[i%len(queries)], Selector: sel, Aggregation: federation.WeightedAveraging}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
