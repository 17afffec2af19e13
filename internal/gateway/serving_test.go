package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// slabFleet is the fleet behind both serving fixtures: four nodes over
// x∈[0,10], [12,22], [40,50], [52,62] with y = 2x+1, so a query disjoint
// from the fleet in both dimensions is a genuine no-candidates miss.
func slabFleet(t *testing.T) (federation.Config, []*federation.Node) {
	t.Helper()
	slabs := [][2]float64{{0, 10}, {12, 22}, {40, 50}, {52, 62}}
	nodes := make([]*federation.Node, len(slabs))
	for i, s := range slabs {
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i),
			lineDataset(150, 2, 1, s[0], s[1], 10+uint64(i)), 3, rng.New(1000+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return federation.Config{Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 2, Seed: 42}, nodes
}

func slabLeader(t *testing.T, cfg federation.Config, nodes []*federation.Node) *federation.Leader {
	t.Helper()
	clients := make([]federation.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = federation.LocalClient{Node: n}
	}
	lead, err := federation.NewLeader(cfg, nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	return lead
}

// routerFixture splits slabFleet into two spatial shards (left: node-0
// and node-1, right: node-2 and node-3) under a root region router.
func routerFixture(t *testing.T) *region.Router {
	t.Helper()
	cfg, nodes := slabFleet(t)
	summaries := make([]cluster.NodeSummary, len(nodes))
	rosterIndex := make(map[string]int, len(nodes))
	for i, n := range nodes {
		summaries[i] = n.Summary()
		rosterIndex[n.ID()] = i
	}
	shards, err := region.Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]region.Service, 0, len(shards))
	for r, shard := range shards {
		members := make([]*federation.Node, 0, len(shard))
		for _, idx := range shard {
			members = append(members, nodes[idx])
		}
		lead, err := region.NewLeader(fmt.Sprintf("region-%d", r), slabLeader(t, cfg, members), rosterIndex)
		if err != nil {
			t.Fatal(err)
		}
		services = append(services, lead)
	}
	router, err := region.NewRouter(region.Config{
		Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed,
	}, services)
	if err != nil {
		t.Fatal(err)
	}
	return router
}

func getJSONDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	var doc map[string]any
	if code := getJSON(t, url, &doc); code != http.StatusOK {
		t.Fatalf("GET %s: %d: %v", url, code, doc)
	}
	return doc
}

func postPlan(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("plan: status %d: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

// servingModes are the two topologies behind the same HTTP surface,
// over the same fleet, each fronted by the same reuse-cache config.
var servingModes = []struct {
	name    string
	regions int // 0: single leader
	config  func(t *testing.T) ServerConfig
}{
	{"leader", 0, func(t *testing.T) ServerConfig {
		cfg, nodes := slabFleet(t)
		return ServerConfig{Leader: slabLeader(t, cfg, nodes)}
	}},
	{"router", 2, func(t *testing.T) ServerConfig { return ServerConfig{Router: routerFixture(t)} }},
}

// TestServingSurface drives every topology-backed endpoint — /v1/plan,
// /v1/query (execute, reuse, cache-before-422, 422), /v1/stats,
// /v1/fleet, /healthz — against both topologies and requires the same
// behaviour, differing only in the blocks that describe the topology.
func TestServingSurface(t *testing.T) {
	const left = `"bounds":{"min":[1,-500],"max":[20,75]}`
	for _, mode := range servingModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.config(t)
			cache, err := federation.NewAdaptiveCache(0.9, 8, federation.ApproxConfig{
				MaxPredictedError: 0.9, MinCoverage: 0.05, ProbeEvery: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache, cfg.Workers, cfg.QueueDepth = cache, 2, 8
			_, ts := newGatewayServer(t, cfg)

			// EXPLAIN: the selection, the full-fleet ranking and the
			// coalescing key, without a single training round.
			code, plan := postPlan(t, ts.URL, `{"bounds":{"min":[1,-500],"max":[60,500]},"selector":"query-driven","epsilon":1e-9,"top_l":2}`)
			if code != http.StatusOK {
				t.Fatalf("plan: %d: %v", code, plan)
			}
			if plan["epoch"].(float64) == 0 || plan["selector"] != "query-driven" || plan["key"] == nil || plan["key"] == "" {
				t.Fatalf("plan header incomplete: %v", plan)
			}
			parts, _ := plan["participants"].([]any)
			if len(parts) == 0 || len(parts) > 2 {
				t.Fatalf("plan participants %v, want 1..2", parts)
			}
			for _, p := range parts {
				if cl, _ := p.(map[string]any)["clusters"].([]any); len(cl) == 0 {
					t.Fatalf("participant %v has no supporting clusters", p)
				}
			}
			if ranks, _ := plan["rankings"].([]any); len(ranks) != 4 || plan["candidates"].(float64) != 4 {
				t.Fatalf("plan rankings = %d rows / %v candidates, want the full fleet (4)", len(ranks), plan["candidates"])
			}
			if regions, _ := plan["regions"].([]any); len(regions) != mode.regions {
				t.Fatalf("plan regions = %v, want %d entries", plan["regions"], mode.regions)
			}
			fleetDoc := getJSONDoc(t, ts.URL+"/v1/fleet")
			for _, n := range fleetDoc["nodes"].([]any) {
				if n.(map[string]any)["rounds"].(float64) != 0 {
					t.Fatalf("planning trained %v", n)
				}
			}
			// Stateful selectors are not EXPLAINable (planning would
			// advance their state); unsupported bounds are the query's
			// fault.
			if code, doc := postPlan(t, ts.URL, `{`+left+`,"selector":"fairness"}`); code != http.StatusBadRequest {
				t.Fatalf("stateful plan: %d (%v), want 400", code, doc)
			}
			if code, doc := postPlan(t, ts.URL, `{"bounds":{"min":[500,2000],"max":[600,3000]},"selector":"query-driven"}`); code != http.StatusUnprocessableEntity {
				t.Fatalf("unsupported plan: %d (%v), want 422", code, doc)
			}

			// Execute, then replay: the second answer comes from the
			// cache.
			qd := `{` + left + `,"selector":"query-driven","epsilon":1e-9,"top_l":2}`
			code, doc, _ := postQuery(t, ts.URL, qd)
			if code != http.StatusOK || doc["reused"] != false {
				t.Fatalf("first query: %d: %v", code, doc)
			}
			if parts, _ := doc["participants"].([]any); len(parts) == 0 {
				t.Fatalf("query selected no participants: %v", doc)
			}
			if code, doc, _ = postQuery(t, ts.URL, qd); code != http.StatusOK || doc["reused"] != true || doc["approx"] == true {
				t.Fatalf("replay: %d: %v, want an exact reuse", code, doc)
			}
			// Reuse is keyed: another aggregation, another selector and
			// a random draw over the same rectangle all train, and the
			// random draw is never stored.
			for _, body := range []string{
				`{` + left + `,"selector":"query-driven","epsilon":1e-9,"top_l":2,"aggregation":"averaging"}`,
				`{` + left + `,"selector":"all-nodes"}`,
				`{` + left + `,"selector":"random","l":2}`,
				`{` + left + `,"selector":"random","l":2}`,
			} {
				if code, doc, _ = postQuery(t, ts.URL, body); code != http.StatusOK || doc["reused"] != false {
					t.Fatalf("%s: %d: %v, want a fresh training", body, code, doc)
				}
			}
			if got := cache.Len(); got != 3 {
				t.Fatalf("cache holds %d results, want 3 (random is not stored)", got)
			}

			// Cache before 422: the same rectangle at an unsatisfiable
			// psi cannot be planned, but the exact tier answers; a
			// contained rectangle goes through the approximate tier; a
			// key nobody stored and a rectangle nobody covers are
			// rejected.
			if code, doc, _ = postQuery(t, ts.URL, `{`+left+`,"selector":"query-driven","epsilon":1e-9,"psi":100}`); code != http.StatusOK || doc["reused"] != true || doc["approx"] == true {
				t.Fatalf("unplannable exact query: %d: %v, want 200 from the cache", code, doc)
			}
			if code, doc, _ = postQuery(t, ts.URL, `{"bounds":{"min":[3,-400],"max":[18,60]},"selector":"query-driven","epsilon":1e-9,"psi":100}`); code != http.StatusOK || doc["approx"] != true {
				t.Fatalf("unplannable covered query: %d: %v, want 200 from the approx tier", code, doc)
			}
			code, doc, _ = postQuery(t, ts.URL, `{"bounds":{"min":[500,2000],"max":[600,3000]},"selector":"query-driven","epsilon":1e-9,"top_l":2}`)
			if msg, _ := doc["error"].(string); code != http.StatusUnprocessableEntity || !strings.Contains(msg, "no node supports the query") {
				t.Fatalf("zero-overlap query: %d (%v), want 422 with the no-candidates taxonomy", code, doc)
			}

			// /v1/stats: roster, space, the cache scoreboard at the top
			// level, and exactly one topology block.
			var admitted struct {
				Scheduler Stats `json:"scheduler"`
			}
			getJSON(t, ts.URL+"/v1/stats", &admitted)
			if admitted.Scheduler.Admitted != 6 {
				t.Fatalf("scheduler admitted %d queries, want 6 (cache answers and 422s bypass admission)", admitted.Scheduler.Admitted)
			}
			stats := getJSONDoc(t, ts.URL+"/v1/stats")
			if nodes, _ := stats["nodes"].([]any); len(nodes) != 4 || stats["space"] == nil {
				t.Fatalf("stats roster %v / space %v, want 4 nodes and the global rect", stats["nodes"], stats["space"])
			}
			reuse, _ := stats["reuse_cache"].(map[string]any)
			if reuse == nil || reuse["hits"].(float64) != 2 || reuse["approx_hits"].(float64) != 1 || reuse["approx_enabled"] != true {
				t.Fatalf("stats reuse_cache = %v, want 2 hits and 1 approx hit", stats["reuse_cache"])
			}
			registry, _ := stats["registry"].(map[string]any)
			router, _ := stats["router"].(map[string]any)
			if mode.regions == 0 {
				if router != nil || registry == nil || registry["epoch"].(float64) == 0 || registry["nodes"].(float64) != 4 {
					t.Fatalf("single-leader stats: registry %v router %v", registry, router)
				}
			} else {
				if registry != nil || router == nil || router["reuse_cache"] != nil {
					t.Fatalf("router stats: registry %v router %v", registry, router)
				}
				regions, _ := router["regions"].([]any)
				if len(regions) != mode.regions {
					t.Fatalf("router stats regions = %v, want %d", router["regions"], mode.regions)
				}
				var routed float64
				for _, r := range regions {
					reg := r.(map[string]any)
					if reg["region_id"] == "" || reg["nodes"].(float64) != 2 || reg["epoch"].(float64) == 0 {
						t.Fatalf("region stat incomplete: %v", reg)
					}
					routed += reg["routed"].(float64)
				}
				if routed == 0 {
					t.Fatal("no routed queries recorded in region stats")
				}
			}

			// /v1/fleet: the full roster, observed or not, with scores
			// and the owning registries' epochs.
			fleetDoc = getJSONDoc(t, ts.URL+"/v1/fleet")
			nodes, _ := fleetDoc["nodes"].([]any)
			if len(nodes) != 4 {
				t.Fatalf("fleet nodes = %d entries, want 4", len(nodes))
			}
			observed := 0
			for _, n := range nodes {
				nh := n.(map[string]any)
				if s := nh["score"].(float64); s < 0 || s > 1 {
					t.Fatalf("node %v score outside [0,1]", nh)
				}
				if nh["rounds"].(float64) > 0 {
					observed++
					if nh["latency_ewma_ms"].(float64) <= 0 {
						t.Fatalf("observed node %v has no latency EWMA", nh)
					}
				}
			}
			if observed == 0 {
				t.Fatal("no node recorded a training round")
			}
			fleetRegions, _ := fleetDoc["regions"].([]any)
			if len(fleetRegions) != mode.regions {
				t.Fatalf("fleet regions = %v, want %d", fleetDoc["regions"], mode.regions)
			}
			if mode.regions == 0 && fleetDoc["registry_epoch"].(float64) == 0 {
				t.Fatalf("fleet %v: unresolved registry epoch", fleetDoc)
			}
			for _, r := range fleetRegions {
				reg := r.(map[string]any)
				if ids, _ := reg["node_ids"].([]any); len(ids) != 2 || reg["registry_epoch"].(float64) == 0 {
					t.Fatalf("fleet region %v: want 2 node ids and a resolved registry epoch", reg)
				}
			}

			health := getJSONDoc(t, ts.URL+"/healthz")
			if health["nodes"].(float64) != 4 || health["draining"] != false {
				t.Fatalf("healthz %v", health)
			}
			if mode.regions == 0 && health["summary_mode"] != "pull" || mode.regions != 0 && health["regions"].(float64) != 2 {
				t.Fatalf("healthz %v lacks the topology's part", health)
			}
		})
	}
}

// TestServerConfigValidation: the topology backends are mutually
// exclusive, and the reuse cache fronts either.
func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("no backend accepted")
	}
	router := routerFixture(t)
	if _, err := NewServer(ServerConfig{Leader: testFleet(t).Leader, Router: router}); err == nil {
		t.Fatal("both backends accepted")
	}
	cache, err := federation.NewReuseCache(0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Router: router, Cache: cache, Workers: 1, QueueDepth: 1, Registry: &telemetry.Registry{}})
	if err != nil {
		t.Fatalf("router + cache rejected: %v", err)
	}
	srv.Close()
}

// stubServing fails each stage on demand.
type stubServing struct {
	planErr, execErr, explainErr, fleetErr error
	healthDeadline                         bool
}

func (s *stubServing) Execute(ctx context.Context, req federation.Request) (*federation.Result, federation.ServeKind, error) {
	if req.CacheOnly {
		return nil, federation.ServeFresh, federation.ErrNotCached
	}
	if s.execErr != nil {
		return nil, federation.ServeFresh, s.execErr
	}
	return &federation.Result{Query: req.Query, Selector: req.Selector.Name(), Ensemble: &federation.Ensemble{}}, federation.ServeFresh, nil
}

func (s *stubServing) PlanKey(context.Context, query.Query, selection.Selector) (string, error) {
	return "k", s.planErr
}

func (s *stubServing) ExplainQuery(_ context.Context, _ query.Query, sel selection.Selector) (*federation.Explanation, error) {
	return &federation.Explanation{Selector: sel.Name()}, s.explainErr
}

func (s *stubServing) Describe(context.Context) region.Description { return region.Description{} }

func (s *stubServing) Health(ctx context.Context) map[string]any {
	_, s.healthDeadline = ctx.Deadline()
	return map[string]any{}
}

func (s *stubServing) Fleet(context.Context) (region.FleetReport, error) {
	return region.FleetReport{}, s.fleetErr
}

func (s *stubServing) SetTracer(*telemetry.Tracer) {}
func (s *stubServing) StopPush()                   {}

// TestServingErrorTaxonomy: whatever topology serves, its errors map to
// the same statuses — 422 for a query nobody supports, 504 for an
// exhausted budget, 502 for everything else the fleet did wrong.
func TestServingErrorTaxonomy(t *testing.T) {
	noCandidates := fmt.Errorf("federation: query-driven selection for q: %w", selection.ErrNoCandidates)
	outage := errors.New("region: training on region-1: connection refused")
	timeout := fmt.Errorf("federation: training on node-1: %w", context.DeadlineExceeded)
	stub := &stubServing{}
	s, err := newServer(ServerConfig{Workers: 1, QueueDepth: 4, Registry: &telemetry.Registry{}}.withDefaults(), stub, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	const body = `{"bounds":{"min":[0,0],"max":[1,1]},"selector":"query-driven","top_l":1}`
	for _, tc := range []struct {
		name string
		set  func(err error)
		post func() int
		errs map[int]error
	}{
		{"query: plan-ahead", func(err error) { stub.planErr = err },
			func() int { code, _, _ := postQuery(t, ts.URL, body); return code },
			// Anything but no-candidates is advisory at admission.
			map[int]error{http.StatusUnprocessableEntity: noCandidates, http.StatusOK: outage}},
		{"query: execute", func(err error) { stub.execErr = err },
			func() int { code, _, _ := postQuery(t, ts.URL, body); return code },
			map[int]error{http.StatusUnprocessableEntity: noCandidates, http.StatusBadGateway: outage, http.StatusGatewayTimeout: timeout}},
		{"plan", func(err error) { stub.explainErr = err },
			func() int { code, _ := postPlan(t, ts.URL, body); return code },
			map[int]error{http.StatusUnprocessableEntity: noCandidates, http.StatusBadGateway: outage, http.StatusGatewayTimeout: timeout}},
		{"fleet", func(err error) { stub.fleetErr = err },
			func() int { var doc map[string]any; return getJSON(t, ts.URL+"/v1/fleet", &doc) },
			map[int]error{http.StatusBadGateway: outage}},
	} {
		for want, err := range tc.errs {
			tc.set(err)
			if got := tc.post(); got != want {
				t.Errorf("%s failing with %q: status %d, want %d", tc.name, err, got, want)
			}
		}
		tc.set(nil)
		if got := tc.post(); got != http.StatusOK {
			t.Errorf("%s healthy: status %d, want 200", tc.name, got)
		}
	}

	// The topology's share of /healthz runs under a deadline.
	getJSONDoc(t, ts.URL+"/healthz")
	if !stub.healthDeadline {
		t.Fatal("/healthz handed the topology an unbounded context")
	}
}
