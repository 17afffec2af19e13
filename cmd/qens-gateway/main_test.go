package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/transport"
)

// airQualityNodes builds two nodes over the 10-feature air-quality
// shards datagen writes by default.
func airQualityNodes(t *testing.T) []*federation.Node {
	t.Helper()
	data, err := dataset.SyntheticAirQuality(dataset.Config{Nodes: 2, SamplesPerNode: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*federation.Node, len(data))
	for i, d := range data {
		if d.Dims() < 3 {
			t.Fatalf("shard %d has %d columns, want >= 2 features", i, d.Dims())
		}
		if nodes[i], err = federation.NewNode(fmt.Sprintf("node-%d", i), d, 3, rng.New(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

func serve(t *testing.T, srv *transport.Server, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// answerAllNodes runs one all-nodes query over the whole data space.
func answerAllNodes(t *testing.T, space func(context.Context) (query.Query, error), exec func(context.Context, federation.Request) (*federation.Result, federation.ServeKind, error)) {
	t.Helper()
	ctx := context.Background()
	q, err := space(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := exec(ctx, federation.Request{Query: q, Selector: selection.AllNodes{}})
	if err != nil {
		t.Fatalf("all-nodes query: %v", err)
	}
	if len(res.Participants) != 2 {
		t.Fatalf("query trained on %d nodes, want 2", len(res.Participants))
	}
}

// TestBuildLeaderRemoteMultiFeature: a leader over qensd daemons trains
// a model as wide as the fleet's advertised data space, not a
// one-feature one.
func TestBuildLeaderRemoteMultiFeature(t *testing.T) {
	var addrs []string
	for _, n := range airQualityNodes(t) {
		srv, err := transport.Serve(n, "127.0.0.1:0")
		addrs = append(addrs, serve(t, srv, err))
	}
	leader, wires, cleanup, err := buildLeader(strings.Join(addrs, ","), 0, 0, 3, 2, 1, "lr", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	answerAllNodes(t, func(ctx context.Context) (query.Query, error) {
		space, err := leader.Space(ctx)
		if err != nil {
			return query.Query{}, err
		}
		return query.New("all", space)
	}, leader.Execute)
	if ws := wires(); len(ws) != 2 || ws[0].BytesOut == 0 {
		t.Fatalf("wire status %+v, want two connections that carried traffic", ws)
	}
}

// TestBuildRouterMultiFeature: the root over qens-region daemons sizes
// its model from the regions' advertised dims.
func TestBuildRouterMultiFeature(t *testing.T) {
	nodes := airQualityNodes(t)
	rosterIndex := map[string]int{"node-0": 0, "node-1": 1}
	var addrs []string
	for i, n := range nodes {
		fed, err := federation.NewLeader(federation.Config{
			Spec: specFor("lr", n.Data().Dims()-1), ClusterK: 3, LocalEpochs: 2, Seed: 1,
		}, nil, []federation.Client{federation.LocalClient{Node: n}})
		if err != nil {
			t.Fatal(err)
		}
		lead, err := region.NewLeader(fmt.Sprintf("region-%d", i), fed, rosterIndex)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.ServeRegion(lead, "127.0.0.1:0")
		addrs = append(addrs, serve(t, srv, err))
	}
	router, wires, cleanup, err := buildRouter(strings.Join(addrs, ","), 2, 1, "lr", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	answerAllNodes(t, func(ctx context.Context) (query.Query, error) {
		d := router.Describe(ctx)
		if d.Space == nil {
			return query.Query{}, fmt.Errorf("router describes no space: %+v", d)
		}
		return query.New("all", *d.Space)
	}, router.Execute)
	if ws := wires(); len(ws) != 2 {
		t.Fatalf("wire status %+v, want two region connections", ws)
	}
}
