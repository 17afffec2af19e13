package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/selection"
)

// regionFleet builds a 4-node fleet as two spatial shards under
// regional leaders. Node seeds depend only on the index, so repeated
// builds are bit-identical (the remote-vs-local equivalence below
// depends on it).
func regionFleet(t *testing.T) []*region.Leader {
	t.Helper()
	slabs := [][2]float64{{0, 10}, {12, 22}, {40, 50}, {52, 62}}
	cfg := federation.Config{Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 2, Seed: 42}
	nodes := make([]*federation.Node, len(slabs))
	summaries := make([]cluster.NodeSummary, len(slabs))
	rosterIndex := make(map[string]int, len(slabs))
	for i, s := range slabs {
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i),
			lineDataset(150, 2, 1, s[0], s[1], 10+uint64(i)), 3, rng.New(1000+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		summaries[i] = n.Summary()
		rosterIndex[n.ID()] = i
	}
	shards, err := region.Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	leaders := make([]*region.Leader, 0, len(shards))
	for r, shard := range shards {
		clients := make([]federation.Client, 0, len(shard))
		for _, idx := range shard {
			clients = append(clients, federation.LocalClient{Node: nodes[idx]})
		}
		fed, err := federation.NewLeader(cfg, nil, clients)
		if err != nil {
			t.Fatal(err)
		}
		lead, err := region.NewLeader(fmt.Sprintf("region-%d", r), fed, rosterIndex)
		if err != nil {
			t.Fatal(err)
		}
		leaders = append(leaders, lead)
	}
	return leaders
}

func serveRegions(t *testing.T, leaders []*region.Leader) []region.Service {
	t.Helper()
	remotes := make([]region.Service, 0, len(leaders))
	for _, lead := range leaders {
		srv, err := ServeRegion(lead, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(silent)
		t.Cleanup(func() { srv.Close() })
		rc, err := DialRegion(context.Background(), srv.Addr(), DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		if rc.ID() != lead.ID() {
			t.Fatalf("dialed region id %q, want %q", rc.ID(), lead.ID())
		}
		remotes = append(remotes, rc)
	}
	return remotes
}

// TestRegionRPCEquivalentToLocal runs the full region RPC surface over
// the wire and requires every response — info, rankings, training
// params, stats — to match the in-process leader bit for bit (the "v2"
// subtest name survives from when the retired JSON codec had a leg).
func TestRegionRPCEquivalentToLocal(t *testing.T) {
	rcfg := region.Config{Spec: ml.PaperLR(1), LocalEpochs: 2, Seed: 42}
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}
	q, err := query.New("remote-q", geometry.MustRect([]float64{1, -500}, []float64{60, 500}))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("v2", func(t *testing.T) {
		localLeaders := regionFleet(t)
		locals := make([]region.Service, len(localLeaders))
		for i, l := range localLeaders {
			locals[i] = l
		}
		remotes := serveRegions(t, regionFleet(t))

		localRouter, err := region.NewRouter(rcfg, locals)
		if err != nil {
			t.Fatal(err)
		}
		remoteRouter, err := region.NewRouter(rcfg, remotes)
		if err != nil {
			t.Fatal(err)
		}

		ctx := context.Background()
		want, _, err := localRouter.Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: federation.WeightedAveraging})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := remoteRouter.Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: federation.WeightedAveraging})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Participants) != len(got.Participants) {
			t.Fatalf("%d vs %d participants", len(want.Participants), len(got.Participants))
		}
		for i := range want.Participants {
			if want.Participants[i].NodeID != got.Participants[i].NodeID ||
				want.Participants[i].Rank != got.Participants[i].Rank {
				t.Fatalf("participant %d: %+v vs %+v", i, want.Participants[i], got.Participants[i])
			}
		}
		for i := range want.LocalParams {
			for j, v := range want.LocalParams[i].Values {
				if got.LocalParams[i].Values[j] != v {
					t.Fatalf("params %d value %d: %v vs %v (not bit-exact over the wire)",
						i, j, v, got.LocalParams[i].Values[j])
				}
			}
		}
		for _, x := range []float64{0, 15, 45, 61} {
			if a, b := want.Ensemble.Predict([]float64{x}), got.Ensemble.Predict([]float64{x}); a != b {
				t.Fatalf("ensemble(%v): %v vs %v", x, a, b)
			}
		}

		// Stats and fleet reports cross the wire intact.
		report, err := remoteRouter.Fleet(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Regions) != 2 {
			t.Fatalf("fleet report has %d regions, want 2", len(report.Regions))
		}
		for _, rep := range report.Regions {
			if rep.RegistryEpoch == 0 || len(rep.NodeIDs) != 2 || len(rep.Nodes) != 2 {
				t.Fatalf("region report %+v incomplete", rep)
			}
		}
	})
}

// TestDialRegionRejectsParticipantDaemon: pointing a root at a node
// daemon must fail at dial time with the unknown-type error, not on
// the first live query.
func TestDialRegionRejectsParticipantDaemon(t *testing.T) {
	srv, _ := startServer(t, 7, 2, 0, 50)
	_, err := DialRegion(context.Background(), srv.Addr(), DialOptions{Timeout: 10 * time.Second})
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("dial region against participant daemon: err %v, want ErrUnknownType", err)
	}
}

// TestRegionServerRejectsNodeRPCs: the inverse mismatch — a leader
// treating a region daemon as a participant — also fails loudly.
func TestRegionServerRejectsNodeRPCs(t *testing.T) {
	leaders := regionFleet(t)
	srv, err := ServeRegion(leaders[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	if srv.NodeID() != leaders[0].ID() {
		t.Fatalf("region server id %q, want %q", srv.NodeID(), leaders[0].ID())
	}
	if srv.SummaryEpoch() != 0 || srv.TrainSlots() != 0 || srv.TrainInflight() != 0 {
		t.Fatal("region server leaked node-backed introspection values")
	}
	if err := srv.Requantize(); err == nil {
		t.Fatal("requantize on a region server should fail")
	}
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Summary(context.Background()); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("summary against region daemon: err %v, want ErrUnknownType", err)
	}
}
