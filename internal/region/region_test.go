package region

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// slabs lays the test fleet out as disjoint x ranges: three nodes on
// the left half of the space, three on the right, so a 2-way partition
// splits cleanly and left-only queries route to one region.
var slabs = [][2]float64{{0, 10}, {12, 22}, {24, 34}, {40, 50}, {52, 62}, {64, 74}}

func lineData(n int, slope, intercept, lo, hi float64, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		x := src.Uniform(lo, hi)
		d.MustAppend([]float64{x, slope*x + intercept + src.Normal(0, 0.3)})
	}
	return d
}

func fedConfig() federation.Config {
	return federation.Config{Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 3, Seed: 42}
}

// buildNodes constructs the test fleet. Node i's data and RNG seeds
// depend only on i, so independently built fleets (single-leader vs
// sharded) are bit-identical.
func buildNodes(t testing.TB) []*federation.Node {
	t.Helper()
	nodes := make([]*federation.Node, len(slabs))
	for i, s := range slabs {
		d := lineData(200, 2, 1, s[0], s[1], 10+uint64(i))
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i), d, 3, rng.New(1000+uint64(i)))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
	}
	return nodes
}

func singleFixture(t testing.TB) *federation.Leader {
	t.Helper()
	nodes := buildNodes(t)
	clients := make([]federation.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = federation.LocalClient{Node: n}
	}
	lead, err := federation.NewLeader(fedConfig(), nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	return lead
}

// shardedFixture builds the same fleet split into `regions` spatial
// shards under a root Router. Returns the router, the regional leaders
// and the raw nodes (for drift injection).
func shardedFixture(t testing.TB, regions int, rcfg Config) (*Router, []*Leader, []*federation.Node) {
	t.Helper()
	nodes := buildNodes(t)
	router, leaders := shardNodes(t, nodes, func(_ string, c federation.Client) federation.Client { return c }, regions, rcfg)
	return router, leaders, nodes
}

// shardNodes splits nodes into `regions` spatial shards under a root
// Router; wrap decorates each node's client (fault injection).
func shardNodes(t testing.TB, nodes []*federation.Node, wrap func(id string, c federation.Client) federation.Client, regions int, rcfg Config) (*Router, []*Leader) {
	t.Helper()
	summaries := make([]cluster.NodeSummary, len(nodes))
	rosterIndex := make(map[string]int, len(nodes))
	for i, n := range nodes {
		summaries[i] = n.Summary()
		rosterIndex[n.ID()] = i
	}
	shards, err := Partition(summaries, regions)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedConfig()
	var services []Service
	var leaders []*Leader
	for r, shard := range shards {
		clients := make([]federation.Client, 0, len(shard))
		for _, idx := range shard {
			clients = append(clients, wrap(nodes[idx].ID(), federation.LocalClient{Node: nodes[idx]}))
		}
		fed, err := federation.NewLeader(cfg, nil, clients)
		if err != nil {
			t.Fatal(err)
		}
		lead, err := NewLeader(fmt.Sprintf("region-%d", r), fed, rosterIndex)
		if err != nil {
			t.Fatal(err)
		}
		leaders = append(leaders, lead)
		services = append(services, lead)
	}
	if rcfg.Spec.Kind == "" {
		rcfg = Config{Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed}
	}
	router, err := NewRouter(rcfg, services)
	if err != nil {
		t.Fatal(err)
	}
	return router, leaders
}

// mustQuery builds a 2-D query rectangle. Eq. 2 scores support as the
// per-dimension mean, so routing and no-candidate behaviour depend on
// BOTH the x and y windows: a region is pruned only when the query is
// disjoint from its covering rect in every dimension.
func mustQuery(t testing.TB, id string, xlo, xhi, ylo, yhi float64) query.Query {
	t.Helper()
	q, err := query.New(id, geometry.MustRect([]float64{xlo, ylo}, []float64{xhi, yhi}))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPartitionSplitsBySpatialOrder(t *testing.T) {
	// Deliberately scrambled input order: partition must still cut the
	// fleet into contiguous slabs of the center-sorted order.
	order := []int{3, 0, 5, 1, 4, 2}
	summaries := make([]cluster.NodeSummary, len(order))
	for i, o := range order {
		lo := slabs[o][0]
		summaries[i] = cluster.NodeSummary{
			NodeID: fmt.Sprintf("node-%d", o),
			Clusters: []cluster.Summary{{
				Bounds:   geometry.MustRect([]float64{lo, 0}, []float64{slabs[o][1], 1}),
				Centroid: []float64{lo, 0.5},
				Size:     10,
			}},
			TotalSamples: 10,
		}
	}
	shards, err := Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || len(shards[0]) != 3 || len(shards[1]) != 3 {
		t.Fatalf("shard sizes: %v", shards)
	}
	left := map[string]bool{}
	for _, idx := range shards[0] {
		left[summaries[idx].NodeID] = true
	}
	for _, want := range []string{"node-0", "node-1", "node-2"} {
		if !left[want] {
			t.Fatalf("left shard %v missing %s", shards[0], want)
		}
	}
	// Same input, same split.
	again, err := Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := range shards {
		for i := range shards[r] {
			if shards[r][i] != again[r][i] {
				t.Fatalf("partition not deterministic: %v vs %v", shards, again)
			}
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	summaries := []cluster.NodeSummary{{
		NodeID: "n",
		Clusters: []cluster.Summary{{
			Bounds:   geometry.MustRect([]float64{0, 0}, []float64{1, 1}),
			Centroid: []float64{0.5, 0.5},
			Size:     1,
		}},
		TotalSamples: 1,
	}}
	if _, err := Partition(summaries, 0); err == nil {
		t.Fatal("accepted 0 regions")
	}
	if _, err := Partition(summaries, 2); err == nil {
		t.Fatal("accepted more regions than nodes")
	}
	if _, err := Partition([]cluster.NodeSummary{{NodeID: "bad"}}, 1); err == nil {
		t.Fatal("accepted invalid summary")
	}
}

func TestLeaderInfo(t *testing.T) {
	_, leaders, _ := shardedFixture(t, 2, Config{})
	info, err := leaders[0].Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.RegionID != "region-0" {
		t.Fatalf("region id %q", info.RegionID)
	}
	if len(info.Nodes) != 3 {
		t.Fatalf("%d members", len(info.Nodes))
	}
	for i, n := range info.Nodes {
		want := fmt.Sprintf("node-%d", i)
		if n.NodeID != want || n.RosterIndex != i {
			t.Fatalf("member %d = %+v, want %s@%d", i, n, want, i)
		}
	}
	if info.Epoch == 0 || info.Dims != 2 || info.TotalSamples <= 0 {
		t.Fatalf("info = %+v", info)
	}
	// Covering rect spans the left slabs and excludes the right ones.
	if info.Bounds.Min[0] > slabs[0][0]+1 || info.Bounds.Max[0] < slabs[2][1]-1 {
		t.Fatalf("bounds %v do not cover left slabs", info.Bounds)
	}
	if info.Bounds.Max[0] >= slabs[3][0] {
		t.Fatalf("bounds %v bleed into the right shard", info.Bounds)
	}
}

func TestLeaderTrainValidation(t *testing.T) {
	_, leaders, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	spec := ml.PaperLR(1)
	spec.Seed = 7
	m, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaders[0].Train(ctx, TrainRequest{Spec: spec, Params: m.Params()}); err == nil {
		t.Fatal("accepted empty participants")
	}
	req := TrainRequest{
		Spec:         spec,
		Params:       m.Params(),
		Participants: []selection.Participant{{NodeID: "node-5", Rank: 1}},
		LocalEpochs:  1,
	}
	if _, err := leaders[0].Train(ctx, req); err == nil {
		t.Fatal("accepted participant from another shard")
	}
	req.Participants = []selection.Participant{{NodeID: "node-0", Rank: 1}}
	resp, err := leaders[0].Train(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Err != "" || len(resp.Results[0].Params.Values) == 0 {
		t.Fatalf("round result %+v", resp.Results)
	}
	if resp.Epoch == 0 {
		t.Fatal("train response missing epoch")
	}
}

func TestRouterRoutesQueryDrivenToOverlappingRegion(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	res, kind, err := router.Execute(ctx, federation.Request{Query: mustQuery(t, "q-left", 1, 20, -500, 75), Selector: selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, Aggregation: federation.ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	if kind.Reused() {
		t.Fatal("first execution reported reuse")
	}
	if len(res.Participants) != 2 || res.Ensemble == nil {
		t.Fatalf("result %+v", res)
	}
	for _, p := range res.Participants {
		if p.NodeID != "node-0" && p.NodeID != "node-1" && p.NodeID != "node-2" {
			t.Fatalf("selected %s outside the overlapping region", p.NodeID)
		}
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions[0].Routed != 1 || st.Regions[1].Routed != 0 {
		t.Fatalf("routed counts %+v", st.Regions)
	}
	if st.Queries != 1 {
		t.Fatalf("queries %d", st.Queries)
	}
}

func TestRouterZeroOverlapIsNoCandidates(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	_, _, err := router.Execute(context.Background(), federation.Request{Query: mustQuery(t, "q-miss", 500, 600, 2000, 3000), Selector: selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, Aggregation: federation.ModelAveraging})
	if !errors.Is(err, selection.ErrNoCandidates) {
		t.Fatalf("zero-overlap error = %v, want ErrNoCandidates", err)
	}
	st, err := router.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.NoRoute != 1 {
		t.Fatalf("no-route count %d", st.NoRoute)
	}
}

func TestRouterAllNodesFansOutEverywhere(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	res, _, err := router.Execute(ctx, federation.Request{Query: mustQuery(t, "q-left-all", 1, 8, -500, 75), Selector: selection.AllNodes{}, Aggregation: federation.ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Participants) != len(slabs) {
		t.Fatalf("all-nodes selected %d of %d", len(res.Participants), len(slabs))
	}
	st, _ := router.Stats(ctx)
	if st.Regions[0].Routed != 1 || st.Regions[1].Routed != 1 || st.Spanning != 1 {
		t.Fatalf("routed counts %+v, %d spanning fan-outs", st.Regions, st.Spanning)
	}
}

func TestRouterSpanningRectFansOutEverywhere(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	_, _, err := router.Execute(ctx, federation.Request{Query: mustQuery(t, "q-span", -100, 1000, -1000, 1000), Selector: selection.QueryDriven{Epsilon: 1e-9, TopL: 4}, Aggregation: federation.ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := router.Stats(ctx)
	if st.Regions[0].Routed != 1 || st.Regions[1].Routed != 1 {
		t.Fatalf("routed counts %+v", st.Regions)
	}
	if st.Spanning != 1 || st.Queries != 1 {
		t.Fatalf("%d spanning fan-outs over %d queries, want one routing decision per query", st.Spanning, st.Queries)
	}
}

// TestLeaderTrainsWithRequestSettings: a region trains with the spec
// and local epochs the root ships on each request, never its wrapped
// leader's config, so a region daemon needs no model settings of its
// own. The shard leader is configured for LR at E=5; an NN request at
// E=1 comes back NN-shaped and equal to the member's own E=1 fit.
func TestLeaderTrainsWithRequestSettings(t *testing.T) {
	nodes := buildNodes(t)
	twins := buildNodes(t)
	fed, err := federation.NewLeader(federation.Config{Spec: ml.PaperLR(1), LocalEpochs: 5, Seed: 42},
		nil, []federation.Client{federation.LocalClient{Node: nodes[0]}})
	if err != nil {
		t.Fatal(err)
	}
	lead, err := NewLeader("region-0", fed, map[string]int{nodes[0].ID(): 0})
	if err != nil {
		t.Fatal(err)
	}
	spec := ml.PaperNN(1)
	spec.Seed = 7
	global, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp, err := lead.Train(ctx, TrainRequest{
		Spec: spec, Params: global.Params(), LocalEpochs: 1,
		Participants: []selection.Participant{{NodeID: nodes[0].ID(), Clusters: []int{0}}},
	})
	if err != nil || len(resp.Results) != 1 || resp.Results[0].Err != "" {
		t.Fatalf("train: %+v, %v", resp, err)
	}
	got := resp.Results[0].Params
	if !got.Compatible(global.Params()) {
		t.Fatalf("trained params %s %v, want the request's NN shape %v", got.Kind, got.Dims, global.Params().Dims)
	}
	want, err := federation.LocalClient{Node: twins[0]}.Train(ctx, federation.TrainRequest{
		Spec: spec, Params: global.Params(), Clusters: []int{0}, LocalEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Values, want.Params.Values) {
		t.Fatal("region fit differs from the member's own E=1 fit")
	}
}

// TestRouterPrepare: Prepare is the selection stage alone — keyed as
// ever, nothing counted, routed or trained — and Execute starts from
// it, without another plan round, until a routed region moves.
func TestRouterPrepare(t *testing.T) {
	router, leaders, nodes := shardedFixture(t, 2, Config{})
	ctx, q := context.Background(), mustQuery(t, "q", 1, 45, -500, 130)
	for _, tc := range []struct {
		sel selection.Selector
		key string
	}{
		{selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, "region-0:1,region-1:1|query-driven|node-1:0,1,2|node-2:0,1,2"},
		{selection.AllNodes{}, "region-0:1,region-1:1|all-nodes|node-0|node-1|node-2|node-3|node-4|node-5"},
	} {
		key, err := router.PlanKey(ctx, q, tc.sel)
		ex, exErr := router.ExplainQuery(ctx, q, tc.sel)
		if err != nil || exErr != nil || key != tc.key || ex.Key != tc.key {
			t.Fatalf("%s: PlanKey %q (%v), EXPLAIN key %q (%v), want %q", tc.sel.Name(), key, err, ex.Key, exErr, tc.key)
		}
	}
	regionPlans := func() (n int64) {
		for _, l := range leaders {
			st := l.fed.Registry().Stats()
			n += st.IndexedPlans + st.BrutePlans
		}
		return n
	}
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}
	prep, err := router.Prepare(ctx, q, sel)
	if err != nil {
		t.Fatal(err)
	}
	// Routing is counted where a query executes: PlanKey, EXPLAIN and
	// Prepare count nothing.
	if st, _ := router.Stats(ctx); st.Queries != 0 || st.Spanning != 0 || st.Regions[0].Routed+st.Regions[1].Routed != 0 {
		t.Fatalf("after Prepare: %+v", st)
	}
	planned := regionPlans()
	res, _, err := router.Execute(ctx, federation.Request{Query: q, Selector: sel, Prepared: prep})
	if err != nil || res.Epoch != prep.Epoch || res.Stats.SelectionTime != 0 || regionPlans() != planned {
		t.Fatalf("Execute from the prepared plan: epoch %d (prepared at %d), selection %v, %d more region plans, err %v",
			res.Epoch, prep.Epoch, res.Stats.SelectionTime, regionPlans()-planned, err)
	}
	if st, _ := router.Stats(ctx); st.Queries != 1 || st.Spanning != 1 || st.Regions[0].Routed != 1 || st.Regions[1].Routed != 1 {
		t.Fatalf("after Execute: %+v", st)
	}

	// Region-1 moves after admission, and another query's plan response
	// carries its new epoch to the root: the admission plan is dead.
	if prep, err = router.Prepare(ctx, q, sel); err != nil {
		t.Fatal(err)
	}
	if err := nodes[5].Requantize(); err != nil {
		t.Fatal(err)
	}
	leaders[1].fed.InvalidateSummaries()
	moved, err := leaders[1].Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Prepare(ctx, mustQuery(t, "q-east", 40, 74, -500, 130), sel); err != nil {
		t.Fatal(err)
	}
	if got := router.members[1].epoch.Load(); got != moved.Epoch {
		t.Fatalf("root holds region-1 at epoch %d after its plan response, want %d", got, moved.Epoch)
	}
	res, _, err = router.Execute(ctx, federation.Request{Query: q, Selector: sel, Prepared: prep})
	if err != nil || res.Epoch <= prep.Epoch || res.Stats.SelectionTime == 0 {
		t.Fatalf("Execute from a stale plan: generation %d (prepared at %d), selection %v, err %v", res.Epoch, prep.Epoch, res.Stats.SelectionTime, err)
	}
	if key, _ := router.PlanKey(ctx, q, sel); !strings.HasPrefix(key, fmt.Sprintf("region-0:1,region-1:%d|", moved.Epoch)) || moved.Epoch < 2 {
		t.Fatalf("key %q after region-1 moved to epoch %d", key, moved.Epoch)
	}
}

func TestRouterStatsAndFleetReport(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	ids, err := router.NodeIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(slabs) {
		t.Fatalf("roster %v", ids)
	}
	for i, id := range ids {
		if id != fmt.Sprintf("node-%d", i) {
			t.Fatalf("roster out of order: %v", ids)
		}
	}
	space := router.Describe(ctx).Space
	if space == nil {
		t.Fatal("no data space")
	}
	if space.Min[0] > 1 || space.Max[0] < slabs[len(slabs)-1][1]-1 {
		t.Fatalf("space %v", space)
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation == 0 || len(st.Regions) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Regions[0].Nodes != 3 || st.Regions[1].Nodes != 3 {
		t.Fatalf("shard sizes %+v", st.Regions)
	}
	report, err := router.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) != 2 || len(report.Nodes) != len(slabs) {
		t.Fatalf("%d region reports over %d nodes", len(report.Regions), len(report.Nodes))
	}
	for _, rep := range report.Regions {
		if len(rep.Nodes) != 3 || len(rep.NodeIDs) != 3 || rep.RegistryEpoch == 0 {
			t.Fatalf("region report %+v", rep)
		}
	}
}

func TestRouterRejectsBadTopologies(t *testing.T) {
	if _, err := NewRouter(Config{Spec: ml.PaperLR(1), Seed: 1}, nil); err == nil {
		t.Fatal("accepted zero regions")
	}
	_, leaders, _ := shardedFixture(t, 2, Config{})
	if _, err := NewRouter(Config{Spec: ml.PaperLR(1), Seed: 1},
		[]Service{leaders[0], leaders[0]}); err == nil {
		t.Fatal("accepted duplicate region ids")
	}
	if _, err := NewRouter(Config{Spec: ml.Spec{Kind: "nope"}, Seed: 1},
		[]Service{leaders[0]}); err == nil {
		t.Fatal("accepted invalid spec")
	}
}

// stalledRegion answers Info only while live.
type stalledRegion struct {
	Service
	live *atomic.Bool
}

func (r stalledRegion) Info(ctx context.Context) (Info, error) {
	if r.live.Load() {
		return r.Service.Info(ctx)
	}
	<-ctx.Done()
	return Info{}, ctx.Err()
}

// TestRouterHealthBounded: a region that stopped answering Info cannot
// stall the health probe past its context; the roster size then comes
// from the last valid topology.
func TestRouterHealthBounded(t *testing.T) {
	_, leaders, _ := shardedFixture(t, 2, Config{})
	var live atomic.Bool
	live.Store(true)
	router, err := NewRouter(Config{Spec: ml.PaperLR(1), Seed: 1},
		[]Service{stalledRegion{leaders[0], &live}, stalledRegion{leaders[1], &live}})
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Health(context.Background()); got["nodes"] != len(slabs) || got["regions"] != 2 {
		t.Fatalf("healthy probe: %v", got)
	}
	// A newer epoch on a region's response invalidates the routing
	// view: the next resolve needs every region's Info.
	live.Store(false)
	router.members[1].observe(1 << 40)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if got := router.Health(ctx); got["nodes"] != len(slabs) || got["regions"] != 2 {
		t.Fatalf("probe during a failed refresh: %v, want the last valid roster", got)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("health probe outlived its context")
	}
	if _, err := router.NodeIDs(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("roster refresh: err = %v, want the stalled Info's deadline", err)
	}
}

// countingRegion counts the Info calls its region answers.
type countingRegion struct {
	Service
	infos atomic.Int64
}

func (c *countingRegion) Info(ctx context.Context) (Info, error) {
	c.infos.Add(1)
	return c.Service.Info(ctx)
}

// TestRouterRebuildAsksOnlyMovedRegion: when one region's epoch moves,
// the topology rebuild asks that region alone for its Info, reuses the
// other's, and equals a topology built from scratch over the same
// regions.
func TestRouterRebuildAsksOnlyMovedRegion(t *testing.T) {
	ctx := context.Background()
	_, leaders, nodes := shardedFixture(t, 2, Config{})
	cfg := Config{Spec: fedConfig().Spec, LocalEpochs: fedConfig().LocalEpochs, Seed: fedConfig().Seed}
	counted := []*countingRegion{{Service: leaders[0]}, {Service: leaders[1]}}
	router, err := NewRouter(cfg, []Service{counted[0], counted[1]})
	if err != nil {
		t.Fatal(err)
	}
	before, err := router.topology(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// node-5 drifts inside region-1; an all-nodes round carries the
	// moved epoch back to the root.
	if err := nodes[5].Requantize(); err != nil {
		t.Fatal(err)
	}
	all := federation.Request{Query: mustQuery(t, "q-all", -10, 80, -30, 160), Selector: selection.AllNodes{}, Aggregation: federation.ModelAveraging}
	if _, _, err := router.Execute(ctx, all); err != nil {
		t.Fatal(err)
	}
	after, err := router.topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.epochs[1] == before.epochs[1] || after.epochs[0] != before.epochs[0] {
		t.Fatalf("epochs %v -> %v: want a rebuild for region-1 alone", before.epochs, after.epochs)
	}
	if n0, n1 := counted[0].infos.Load(), counted[1].infos.Load(); n0 != 1 || n1 != 2 {
		t.Fatalf("Info calls %d and %d, want 1 and 2: only the moved region is asked again", n0, n1)
	}

	fresh, err := NewRouter(cfg, []Service{leaders[0], leaders[1]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := *after
	got.gen = want.gen
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("rebuilt topology differs from a fresh build:\n got %+v\nwant %+v", got, *want)
	}
}
