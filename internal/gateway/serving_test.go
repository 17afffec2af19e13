package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/fleet"
	"qens/internal/geometry"
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
			cfg.WireStatus = func() []fleet.WireStatus {
				return []fleet.WireStatus{{NodeID: "node-0", Addr: "127.0.0.1:7001", InflightRPCs: 1, BytesOut: 10, BytesIn: 20}}
			}
			s, ts := newGatewayServer(t, cfg)

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
			// The baselines are not served (400); unsupported bounds
			// are the query's fault (422).
			if code, doc := postPlan(t, ts.URL, `{`+left+`,"selector":"fairness"}`); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(doc["error"]), "unknown selector") {
				t.Fatalf("fairness plan: %d (%v), want 400 unknown selector", code, doc)
			}
			if code, doc := postPlan(t, ts.URL, `{"bounds":{"min":[500,2000],"max":[600,3000]},"selector":"query-driven"}`); code != http.StatusUnprocessableEntity {
				t.Fatalf("unsupported plan: %d (%v), want 422", code, doc)
			}
			// Bounds of other than the fleet's dims are the client's
			// fault too: a 400 from both endpoints, nothing admitted.
			for _, bounds := range []string{`{"min":[1],"max":[20]}`, `{"min":[1,-500,0],"max":[20,75,1]}`} {
				body := `{"bounds":` + bounds + `}`
				if code, doc, _ := postQuery(t, ts.URL, body); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(doc["error"]), "fleet has 2") {
					t.Fatalf("query %s: %d (%v), want 400 naming the fleet's dims", bounds, code, doc)
				}
				if code, doc := postPlan(t, ts.URL, body); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(doc["error"]), "fleet has 2") {
					t.Fatalf("plan %s: %d (%v), want 400 naming the fleet's dims", bounds, code, doc)
				}
			}
			if n := s.sched.SchedStats().Admitted; n != 0 {
				t.Fatalf("%d wrong-dims queries admitted, want 0", n)
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
			// Reuse is keyed: another aggregation and another selector
			// over the same rectangle both train.
			for _, body := range []string{
				`{` + left + `,"selector":"query-driven","epsilon":1e-9,"top_l":2,"aggregation":"averaging"}`,
				`{` + left + `,"selector":"all-nodes"}`,
			} {
				if code, doc, _ = postQuery(t, ts.URL, body); code != http.StatusOK || doc["reused"] != false {
					t.Fatalf("%s: %d: %v, want a fresh training", body, code, doc)
				}
			}
			if got := cache.Len(); got != 3 {
				t.Fatalf("cache holds %d results, want 3", got)
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
			// level, the same transport block, and exactly one topology
			// block.
			var admitted struct {
				Scheduler Stats           `json:"scheduler"`
				Transport json.RawMessage `json:"transport"`
			}
			getJSON(t, ts.URL+"/v1/stats", &admitted)
			if admitted.Scheduler.Admitted != 4 {
				t.Fatalf("scheduler admitted %d queries, want 4 (cache answers and 422s bypass admission)", admitted.Scheduler.Admitted)
			}
			if want := `[{"node_id":"node-0","addr":"127.0.0.1:7001","inflight_rpcs":1,"bytes_out":10,"bytes_in":20}]`; string(admitted.Transport) != want {
				t.Fatalf("stats transport = %s, want %s", admitted.Transport, want)
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

func (s *stubServing) Prepare(context.Context, query.Query, selection.Selector) (*federation.Prepared, error) {
	return &federation.Prepared{}, s.planErr
}

func (s *stubServing) ExplainQuery(_ context.Context, _ query.Query, sel selection.Selector) (*federation.Explanation, error) {
	return &federation.Explanation{Selector: sel.Name()}, s.explainErr
}

func (s *stubServing) Dims(context.Context) (int, error) { return 2, nil }

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

// servingOf resolves a ServerConfig's topology the way NewServer does.
func servingOf(cfg ServerConfig) Serving {
	if cfg.Leader != nil {
		return leaderServing{Leader: cfg.Leader, wire: cfg.WireStatus}
	}
	return cfg.Router
}

// recordingServing notes, in execution order, what every admitted query
// was executed with and what came back.
type recordingServing struct {
	Serving
	mu   sync.Mutex
	runs []servedRun
}

type servedRun struct {
	req federation.Request
	res *federation.Result
}

func (r *recordingServing) Execute(ctx context.Context, req federation.Request) (*federation.Result, federation.ServeKind, error) {
	res, kind, err := r.Serving.Execute(ctx, req)
	if !req.CacheOnly {
		r.mu.Lock()
		r.runs = append(r.runs, servedRun{req, res})
		r.mu.Unlock()
	}
	return res, kind, err
}

// run returns the recorded execution of query id.
func (r *recordingServing) run(t *testing.T, id string) servedRun {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, run := range r.runs {
		if run.req.Query.ID == id {
			return run
		}
	}
	t.Fatalf("query %s never executed", id)
	return servedRun{}
}

func recordedServer(t *testing.T, cfg ServerConfig) (*recordingServing, *httptest.Server) {
	t.Helper()
	cfg.Registry = &telemetry.Registry{}
	rec := &recordingServing{Serving: servingOf(cfg)}
	s, err := newServer(cfg.withDefaults(), rec, cfg.Cache)
	if err != nil {
		t.Fatal(err)
	}
	return rec, newHTTPServer(t, s)
}

// awaitRecord polls GET /v1/query/{id} until the query finished.
func awaitRecord(t *testing.T, url, id string) record {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var rec record
		if code := getJSON(t, url+"/v1/query/"+id, &rec); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		if rec.Status != recordPending {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("record %s stuck at %s", id, rec.Status)
		}
	}
}

// awaitInflight waits until n queries are executing.
func awaitInflight(t *testing.T, url string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var stats statsResponse
		getJSON(t, url+"/v1/stats", &stats)
		if stats.Scheduler.InFlight == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want %d", stats.Scheduler.InFlight, n)
		}
	}
}

// stubRegion is a region.Service under the test's control: a fixed
// shard whose nodes all support every query with the one cluster
// [epoch] — a training directive names the generation it was planned at
// — counting Plan calls and noting, per query, every directive Train
// was handed from a generation other than the live one.
type stubRegion struct {
	id     string
	nodes  []region.NodeInfo
	bounds geometry.Rect
	epoch  atomic.Uint64
	plans  atomic.Int64
	trains atomic.Int64  // Train calls, counted before the gate
	gate   chan struct{} // non-nil: Train waits for it to close
	stall  bool          // Plan answers only when its ctx is done

	mu   sync.Mutex
	dead map[int64][]string // Train call, in arrival order from 1 -> participants trained on a dead directive
}

// stubRegions builds west (w0, w1 over x in [0,10]) and east (e0, e1
// over x in [20,30]), both at epoch 1, under a root router.
func stubRegions(t *testing.T) (west, east *stubRegion, router *region.Router) {
	t.Helper()
	mk := func(id string, first int, lo float64) *stubRegion {
		s := &stubRegion{
			id:     id,
			nodes:  []region.NodeInfo{{NodeID: id[:1] + "0", RosterIndex: first}, {NodeID: id[:1] + "1", RosterIndex: first + 1}},
			bounds: geometry.MustRect([]float64{lo, 0}, []float64{lo + 10, 10}),
			dead:   map[int64][]string{},
		}
		s.epoch.Store(1)
		return s
	}
	west, east = mk("west", 0, 0), mk("east", 2, 20)
	router, err := region.NewRouter(region.Config{Spec: ml.PaperLR(1), Seed: 1}, []region.Service{west, east})
	if err != nil {
		t.Fatal(err)
	}
	return west, east, router
}

func (s *stubRegion) ID() string { return s.id }

func (s *stubRegion) Info(context.Context) (region.Info, error) {
	return region.Info{RegionID: s.id, Nodes: s.nodes, Epoch: s.epoch.Load(), Bounds: s.bounds, Dims: 2, TotalSamples: 200}, nil
}

func (s *stubRegion) Plan(ctx context.Context, _ region.PlanRequest) (region.PlanResponse, error) {
	s.plans.Add(1)
	if s.stall {
		<-ctx.Done()
		return region.PlanResponse{}, ctx.Err()
	}
	epoch := s.epoch.Load()
	ranks := make([]selection.NodeRank, len(s.nodes))
	for i, n := range s.nodes {
		ranks[i] = selection.NodeRank{
			NodeID: n.NodeID, Overlaps: []float64{1}, Supporting: []int{int(epoch)}, Potential: 1,
			Rank: 1 / float64(1+n.RosterIndex), SupportingSamples: 10, TotalSamples: 100, Sizes: []int{100},
		}
	}
	return region.PlanResponse{RegionID: s.id, Epoch: epoch, Ranks: ranks}, nil
}

func (s *stubRegion) Train(ctx context.Context, req region.TrainRequest) (region.TrainResponse, error) {
	call := s.trains.Add(1)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return region.TrainResponse{}, ctx.Err()
		}
	}
	epoch := s.epoch.Load()
	resp := region.TrainResponse{RegionID: s.id, Epoch: epoch}
	for _, p := range req.Participants {
		if !reflect.DeepEqual(p.Clusters, []int{int(epoch)}) {
			s.mu.Lock()
			s.dead[call] = append(s.dead[call], p.NodeID)
			s.mu.Unlock()
		}
		resp.Results = append(resp.Results, region.RoundResult{NodeID: p.NodeID, Params: req.Params, SamplesUsed: 10, TotalSamples: 100})
	}
	return resp, nil
}

func (s *stubRegion) Stats(ctx context.Context) (region.Stats, error) {
	info, err := s.Info(ctx)
	return region.Stats{Info: info}, err
}

// leaderPlans is how many times the leader's planner ranked the fleet
// for a query-driven selection.
func leaderPlans(l *federation.Leader) int64 {
	st := l.Registry().Stats()
	return st.IndexedPlans + st.BrutePlans
}

// TestPlanOncePerQuery: the admission-time plan is the execution plan.
// N synchronous deterministic queries rank the fleet exactly N times —
// one Plan RPC per routed region per query under the router, one
// planner run per query under a single leader — and the router counts
// one routing decision per query.
func TestPlanOncePerQuery(t *testing.T) {
	const n = 6
	t.Run("router", func(t *testing.T) {
		west, east, router := stubRegions(t)
		_, ts := newGatewayServer(t, ServerConfig{Router: router, Workers: 2, QueueDepth: 8, CoalesceIoU: -1})
		for i := 0; i < n; i++ {
			// Distinct rectangles, each spanning both regions.
			body := fmt.Sprintf(`{"bounds":{"min":[%d,-1],"max":[31,11]},"selector":"query-driven","top_l":4}`, -1-i)
			if code, doc, _ := postQuery(t, ts.URL, body); code != http.StatusOK || len(doc["participants"].([]any)) != 4 {
				t.Fatalf("query %d: %d: %v", i, code, doc)
			}
		}
		if w, e := west.plans.Load(), east.plans.Load(); w != n || e != n {
			t.Fatalf("plan RPCs west=%d east=%d for %d queries, want one per query per region", w, e, n)
		}
		rs := getJSONDoc(t, ts.URL+"/v1/stats")["router"].(map[string]any)
		if rs["queries"].(float64) != n || rs["spanning_fanouts"].(float64) != n || rs["regions_pruned"].(float64) != 0 {
			t.Fatalf("router stats %v, want queries = spanning_fanouts = %d", rs, n)
		}
		for _, r := range rs["regions"].([]any) {
			if reg := r.(map[string]any); reg["routed"].(float64) != n {
				t.Fatalf("region %v routed, want %d", reg, n)
			}
		}
	})
	t.Run("leader", func(t *testing.T) {
		cfg, nodes := slabFleet(t)
		lead := slabLeader(t, cfg, nodes)
		_, ts := newGatewayServer(t, ServerConfig{Leader: lead, Workers: 2, QueueDepth: 8, CoalesceIoU: -1})
		for i := 0; i < n; i++ {
			body := fmt.Sprintf(`{"bounds":{"min":[%d,-500],"max":[20,75]},"selector":"query-driven","epsilon":1e-9,"top_l":2}`, i)
			if code, doc, _ := postQuery(t, ts.URL, body); code != http.StatusOK {
				t.Fatalf("query %d: %d: %v", i, code, doc)
			} else if ms := doc["stats"].(map[string]any)["selection_ms"].(float64); ms != 0 {
				t.Fatalf("query %d spent %v ms selecting inside execute, want 0", i, ms)
			}
		}
		if got := leaderPlans(lead); got != n {
			t.Fatalf("planner ran %d times for %d queries", got, n)
		}
	})
}

// stallingClient stalls the summary pull, while stall is set, until
// the caller's context ends.
type stallingClient struct {
	federation.Client
	stall *atomic.Bool
	pulls *atomic.Int64 // stalled pulls
}

func (c stallingClient) SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error) {
	if !c.stall.Load() {
		return c.Client.SummaryIfChanged(ctx, known)
	}
	c.pulls.Add(1)
	<-ctx.Done()
	return cluster.NodeSummary{}, false, ctx.Err()
}

// TestAdmissionPlanUnderQueryDeadline: the query's one deadline is
// fixed before admission, so a plan that waits on a peer which never
// answers — a region's plan RPC, a stale registry's summary pull —
// costs a query its timeout_ms, not the client's dial timeout.
func TestAdmissionPlanUnderQueryDeadline(t *testing.T) {
	const body = `{"bounds":{"min":[-1,-1],"max":[31,11]},"selector":"query-driven","top_l":4,"timeout_ms":200}`
	// Both endpoints plan under the body's deadline; the client gives
	// up long after it, so a plan that ignores it fails, not hangs.
	client := &http.Client{Timeout: 5 * time.Second}
	answersInBudget := func(t *testing.T, url string) {
		t.Helper()
		for _, path := range []string{"/v1/query", "/v1/plan"} {
			start := time.Now()
			resp, err := client.Post(url+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("stalled %s: %v", path, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("stalled %s: %d %s, want 504", path, resp.StatusCode, raw)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("stalled %s answered after %v, want about the 200ms budget", path, elapsed)
			}
		}
	}
	t.Run("router", func(t *testing.T) {
		west, east, router := stubRegions(t)
		west.stall, east.stall = true, true
		_, ts := newGatewayServer(t, ServerConfig{Router: router, Workers: 1, QueueDepth: 4, CoalesceIoU: -1})
		answersInBudget(t, ts.URL)
		if west.plans.Load() == 0 || east.plans.Load() == 0 {
			t.Fatal("no region was asked to plan")
		}
	})
	t.Run("leader", func(t *testing.T) {
		cfg, nodes := slabFleet(t)
		var stall atomic.Bool
		var pulls atomic.Int64
		clients := make([]federation.Client, len(nodes))
		for i, n := range nodes {
			clients[i] = stallingClient{Client: federation.LocalClient{Node: n}, stall: &stall, pulls: &pulls}
		}
		lead, err := federation.NewLeader(cfg, nil, clients)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newGatewayServer(t, ServerConfig{Leader: lead, Workers: 1, QueueDepth: 4, CoalesceIoU: -1})
		if _, err := lead.Registry().Snapshot(context.Background()); err != nil {
			t.Fatal(err)
		}
		stall.Store(true)
		lead.InvalidateSummaries()
		answersInBudget(t, ts.URL)
		if pulls.Load() == 0 {
			t.Fatal("no summary pull stalled")
		}
	})
}

// TestRouterCountersShareADenominator: the router's routing counters
// count executed queries, like its queries counter, so reuse-cache hits
// and 422s at admission never push spanning_fanouts past queries.
func TestRouterCountersShareADenominator(t *testing.T) {
	_, _, router := stubRegions(t)
	cache, err := federation.NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newGatewayServer(t, ServerConfig{Router: router, Cache: cache, Workers: 2, QueueDepth: 8, CoalesceIoU: -1})
	for i, tc := range []struct {
		bounds string
		code   int
		reused bool
	}{
		{`"min":[-1,-1],"max":[31,11]`, http.StatusOK, false}, // spans west and east
		{`"min":[-1,-1],"max":[31,11]`, http.StatusOK, true},
		{`"min":[50,50],"max":[60,60]`, http.StatusUnprocessableEntity, false}, // routes nowhere
		{`"min":[-1,-1],"max":[31,11]`, http.StatusOK, true},
		{`"min":[0,0],"max":[5,5]`, http.StatusOK, false}, // east pruned at ε 0.6
		{`"min":[50,50],"max":[60,60]`, http.StatusUnprocessableEntity, false},
	} {
		body := fmt.Sprintf(`{"bounds":{%s},"selector":"query-driven","epsilon":0.6,"top_l":2}`, tc.bounds)
		code, doc, _ := postQuery(t, ts.URL, body)
		if code != tc.code || (code == http.StatusOK && doc["reused"] != tc.reused) {
			t.Fatalf("query %d: %d, reused %v; want %d, reused %v: %v", i, code, doc["reused"], tc.code, tc.reused, doc)
		}
	}
	rs := getJSONDoc(t, ts.URL+"/v1/stats")["router"].(map[string]any)
	queries, spanning := rs["queries"].(float64), rs["spanning_fanouts"].(float64)
	if spanning > queries {
		t.Fatalf("spanning_fanouts %v > queries %v: %v", spanning, queries, rs)
	}
	if queries != 2 || spanning != 1 || rs["regions_pruned"].(float64) != 1 || rs["no_route_rejects"].(float64) != 2 {
		t.Fatalf("router stats %v, want 2 queries, 1 spanning fan-out, 1 region pruned, 2 no-route rejects", rs)
	}
}

// TestAdmissionPlanStaleness: a plan whose basis moved between admission
// and execution is not trained. With the worker held, a query is
// admitted, the epoch moves, and the worker is released: execute plans
// again, the result carries the new epoch, and no directive of the dead
// generation reaches a node. Under the router the root learns of the
// move the way it does across processes, from the epoch on a region's
// response.
func TestAdmissionPlanStaleness(t *testing.T) {
	const body = `{"id":%q,"bounds":{"min":[%d,-50],"max":[35,150]},"selector":"query-driven","top_l":4,"async":true}`
	submit := func(t *testing.T, url, id string, lo int) {
		t.Helper()
		if code, doc, _ := postQuery(t, url, fmt.Sprintf(body, id, lo)); code != http.StatusAccepted {
			t.Fatalf("submit %s: %d: %v", id, code, doc)
		}
	}
	t.Run("router", func(t *testing.T) {
		west, east, router := stubRegions(t)
		gate := make(chan struct{})
		west.gate, east.gate = gate, gate
		rec, ts := recordedServer(t, ServerConfig{Router: router, Workers: 1, QueueDepth: 4, CoalesceIoU: -1})
		submit(t, ts.URL, "a", -1)
		// a is past its basis check once both regions hold its train
		// call; an epoch moved any earlier would make a replan too.
		for deadline := time.Now().Add(5 * time.Second); west.trains.Load() == 0 || east.trains.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("a never reached the regions' train gate")
			}
		}
		submit(t, ts.URL, "b", -2) // admitted and planned at east's epoch 1
		// a's own train response carries east's epoch 2 to the root
		// before the one worker takes b.
		east.epoch.Store(2)
		close(gate)
		for _, id := range []string{"a", "b"} {
			if r := awaitRecord(t, ts.URL, id); r.Status != recordDone {
				t.Fatalf("%s: %s %s", id, r.Status, r.Error)
			}
		}
		b := rec.run(t, "b")
		if b.req.Prepared == nil || b.res.Epoch <= b.req.Prepared.Epoch {
			t.Fatalf("b executed at topology generation %d, admitted at %+v: want a replan on the new one", b.res.Epoch, b.req.Prepared)
		}
		if w, e := west.plans.Load(), east.plans.Load(); w != 3 || e != 3 {
			t.Fatalf("plan RPCs west=%d east=%d, want 3 each (a, b at admission, b again at execution)", w, e)
		}
		// Workers: 1 runs a, then b: b is each region's second Train call.
		if w, e := west.trains.Load(), east.trains.Load(); w != 2 || e != 2 {
			t.Fatalf("train RPCs west=%d east=%d, want 2 each (a, then b)", w, e)
		}
		if dead := append(west.dead[2], east.dead[2]...); len(dead) != 0 {
			t.Fatalf("b trained %v on a dead generation's directive", dead)
		}
		for _, p := range b.res.Participants {
			if want := []int{1 + strings.Count(p.NodeID, "e")}; !reflect.DeepEqual(p.Clusters, want) {
				t.Fatalf("b's participant %+v, want the live generation's directive %v", p, want)
			}
		}
	})
	t.Run("leader", func(t *testing.T) {
		gate := make(chan struct{})
		lead, arrived := gatedLeader(t, gate)
		rec, ts := recordedServer(t, ServerConfig{Leader: lead, Workers: 1, QueueDepth: 4, CoalesceIoU: -1})
		submit(t, ts.URL, "a", 5)
		// a is past its basis check once a train call holds at the
		// gate; an invalidation any earlier would make a replan too.
		for deadline := time.Now().Add(5 * time.Second); arrived.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("a never reached the train gate")
			}
		}
		submit(t, ts.URL, "b", 6)
		submit(t, ts.URL, "c", 7)
		lead.InvalidateSummaries()
		close(gate)
		for _, id := range []string{"a", "b", "c"} {
			if r := awaitRecord(t, ts.URL, id); r.Status != recordDone {
				t.Fatalf("%s: %s %s", id, r.Status, r.Error)
			}
		}
		// b refreshes the registry and replans; c's admission plan is as
		// dead as b's was, so it replans too, on the epoch b published.
		for _, id := range []string{"b", "c"} {
			run := rec.run(t, id)
			if run.req.Prepared == nil || run.res.Epoch != run.req.Prepared.Epoch+1 || run.res.Epoch != lead.SummaryEpoch() {
				t.Fatalf("%s executed at epoch %d, admitted at %+v, registry at %d", id, run.res.Epoch, run.req.Prepared, lead.SummaryEpoch())
			}
			if run.res.Stats.SelectionTime <= 0 {
				t.Fatalf("%s replanned without selection time", id)
			}
		}
		if got := leaderPlans(lead); got != 5 {
			t.Fatalf("planner ran %d times, want 5 (three admissions, two replans)", got)
		}
	})
}

// replayWorkload is a seeded stream of rectangles over slabFleet's
// space — some supported by nobody, every fourth a repeat the cache can
// answer — under query-driven top-ℓ, every seventh query ψ instead, and
// every fifth all-nodes.
func replayWorkload(n int) []queryRequest {
	src := rng.New(77)
	out := make([]queryRequest, n)
	for i := range out {
		if i%4 == 3 {
			out[i] = out[i-3]
			out[i].ID = fmt.Sprintf("replay-%d", i)
			continue
		}
		x, y := src.Uniform(-5, 60), src.Uniform(-50, 100)
		out[i] = queryRequest{
			ID:     fmt.Sprintf("replay-%d", i),
			Bounds: geometry.MustRect([]float64{x, y}, []float64{x + src.Uniform(3, 30), y + src.Uniform(20, 150)}),
		}
		switch {
		case i%7 == 6:
			out[i].Selector, out[i].Epsilon, out[i].Psi = "query-driven", 0.3, 0.05
		case i%5 == 4:
			out[i].Selector = "all-nodes"
		default:
			out[i].Selector, out[i].Epsilon, out[i].TopL = "query-driven", 0.3, 2
		}
	}
	return out
}

// sameAnswer requires an HTTP answer to equal a direct Execute bit for
// bit: participants, training directives and every local parameter.
func sameAnswer(t *testing.T, id string, doc map[string]any, res *federation.Result) {
	t.Helper()
	parts, _ := doc["participants"].([]any)
	if len(parts) != len(res.Participants) {
		t.Fatalf("%s: %d participants over HTTP, %d direct", id, len(parts), len(res.Participants))
	}
	for i, p := range parts {
		pm, want := p.(map[string]any), res.Participants[i]
		raw, _ := pm["clusters"].([]any) // omitted for a whole-dataset directive
		clusters := make([]int, len(raw))
		for k, c := range raw {
			clusters[k] = int(c.(float64))
		}
		if pm["node_id"] != want.NodeID || math.Float64bits(pm["rank"].(float64)) != math.Float64bits(want.Rank) ||
			!reflect.DeepEqual(clusters, append([]int{}, want.Clusters...)) {
			t.Fatalf("%s: participant %d = %v over HTTP, %+v direct", id, i, pm, want)
		}
	}
	params, _ := doc["local_params"].([]any)
	if len(params) != len(res.LocalParams) {
		t.Fatalf("%s: %d local models over HTTP, %d direct", id, len(params), len(res.LocalParams))
	}
	for i, vec := range params {
		for j, v := range vec.([]any) {
			if math.Float64bits(v.(float64)) != math.Float64bits(res.LocalParams[i].Values[j]) {
				t.Fatalf("%s: model %d weight %d = %v over HTTP, %v direct", id, i, j, v, res.LocalParams[i].Values[j])
			}
		}
	}
}

// TestSubmitReplayBitExact: a seeded workload answered through
// POST /v1/query — planned at admission, trained from that plan — equals
// the same workload run through Execute directly on a twin topology,
// bit for bit, with and without the reuse cache, in both topologies.
func TestSubmitReplayBitExact(t *testing.T) {
	for _, mode := range servingModes {
		n := 200
		if mode.regions > 0 {
			n = 60
		}
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cached=%v", mode.name, cached), func(t *testing.T) {
				cfg, twin := mode.config(t), servingOf(mode.config(t))
				var twinCache *federation.ReuseCache
				if cached {
					var err error
					if cfg.Cache, err = federation.NewReuseCache(0.9, 16); err != nil {
						t.Fatal(err)
					}
					twinCache, _ = federation.NewReuseCache(0.9, 16)
				}
				cfg.Workers, cfg.QueueDepth, cfg.CoalesceIoU = 2, 8, -1
				s, ts := newGatewayServer(t, cfg)
				trained, reused := 0, 0
				for _, req := range replayWorkload(n) {
					req.IncludeParams = true
					body, _ := json.Marshal(req)
					code, doc, _ := postQuery(t, ts.URL, string(body))
					q, _ := query.New(req.ID, req.Bounds)
					sel, err := s.buildSelector(req)
					if err != nil {
						t.Fatal(err)
					}
					res, kind, err := twin.Execute(context.Background(), federation.Request{
						Query: q, Selector: sel, Aggregation: federation.WeightedAveraging, Cache: twinCache,
					})
					if errors.Is(err, selection.ErrNoCandidates) {
						if code != http.StatusUnprocessableEntity {
							t.Fatalf("%s: %d over HTTP, no candidates direct", req.ID, code)
						}
						continue
					}
					if err != nil || code != http.StatusOK || doc["reused"] != kind.Reused() {
						t.Fatalf("%s: %d %v over HTTP; %v (reused=%v) direct", req.ID, code, doc, err, kind.Reused())
					}
					sameAnswer(t, req.ID, doc, res)
					if kind.Reused() {
						reused++
					} else {
						trained++
					}
				}
				if trained < n/4 || cached && reused == 0 {
					t.Fatalf("workload trained %d and reused %d of %d queries: not a replay worth pinning", trained, reused, n)
				}
			})
		}
	}
}

// TestSeedDrawnAtExecution: concurrent submissions are planned in
// whatever order they arrive, but the model seed is drawn when a query
// executes — replaying the execution order directly on a twin leader
// reproduces every answer bit for bit.
func TestSeedDrawnAtExecution(t *testing.T) {
	cfg, nodes := slabFleet(t)
	rec, ts := recordedServer(t, ServerConfig{Leader: slabLeader(t, cfg, nodes), Workers: 1, QueueDepth: 32, CoalesceIoU: -1})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"id":"c-%d","bounds":{"min":[%d,-500],"max":[%d,200]},"selector":"query-driven","epsilon":1e-9,"top_l":2}`, i, i, 30+i)
			if code, doc, _, err := doPost(ts.URL, body); err != nil || code != http.StatusOK {
				t.Errorf("c-%d: %d %v %v", i, code, doc, err)
			}
		}(i)
	}
	wg.Wait()
	_, twinNodes := slabFleet(t)
	twin := slabLeader(t, cfg, twinNodes)
	if len(rec.runs) != n {
		t.Fatalf("%d executions, want %d", len(rec.runs), n)
	}
	for _, run := range rec.runs {
		if run.req.Prepared == nil {
			t.Fatalf("%s executed without its admission plan", run.req.Query.ID)
		}
		res, _, err := twin.Execute(context.Background(), federation.Request{Query: run.req.Query, Selector: run.req.Selector, Aggregation: run.req.Aggregation})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.LocalParams {
			for j, v := range p.Values {
				if math.Float64bits(v) != math.Float64bits(run.res.LocalParams[i].Values[j]) {
					t.Fatalf("%s: model %d weight %d differs from the in-order replay", run.req.Query.ID, i, j)
				}
			}
		}
	}
}

// TestAdmissionPlansEveryQuery: every served query executes with its
// admission plan, and requests that never reach a worker of their own —
// shed, abandoned by their client, coalesced onto another — leave the
// planner exactly as a served one does: every admission plans once, and
// nobody plans again.
func TestAdmissionPlansEveryQuery(t *testing.T) {
	gate := make(chan struct{})
	lead, _ := gatedLeader(t, gate)
	rec, ts := recordedServer(t, ServerConfig{Leader: lead, Workers: 1, QueueDepth: 1, CoalesceIoU: 0.95})
	const rect = `"bounds":{"min":[%d,-50],"max":[35,150]}`
	post := func(id, rest string, lo, want int) {
		t.Helper()
		body := fmt.Sprintf(`{"id":%q,`+rect+`,%s}`, id, lo, rest)
		if code, doc, _ := postQuery(t, ts.URL, body); code != want {
			t.Fatalf("%s: %d (%v), want %d", id, code, doc, want)
		}
	}
	post("held", `"selector":"query-driven","top_l":2,"async":true`, 0, http.StatusAccepted)
	awaitInflight(t, ts.URL, 1)
	post("follower", `"selector":"query-driven","top_l":2,"async":true`, 0, http.StatusAccepted) // coalesces onto held
	post("abandoned", `"selector":"all-nodes","timeout_ms":30`, 2, http.StatusGatewayTimeout)    // its client gives up; the task stays queued
	post("shed", `"selector":"query-driven","top_l":2,"async":true`, 6, http.StatusTooManyRequests)
	if got := leaderPlans(lead); got != 3 {
		t.Fatalf("planner ran %d times at admission, want 3 (held, follower, shed)", got)
	}
	close(gate)
	for _, id := range []string{"held", "follower"} {
		if r := awaitRecord(t, ts.URL, id); r.Status != recordDone {
			t.Fatalf("%s: %s %s", id, r.Status, r.Error)
		}
	}
	post("all-nodes", `"selector":"all-nodes"`, 8, http.StatusOK)
	for _, id := range []string{"held", "all-nodes"} {
		if rec.run(t, id).req.Prepared == nil {
			t.Fatalf("%s executed without its admission plan", id)
		}
	}
	if got := leaderPlans(lead); got != 3 {
		t.Fatalf("planner ran %d times in all, want 3: execution must not plan a prepared query again", got)
	}
}

// statsShape flattens a decoded JSON document into "path type" lines:
// object members join with ".", array elements and the members of a
// per-node map (a map keyed by the fleet's node ids) collapse to one
// "[]" or "{node}" step, and the type is JSON's (object, array, string,
// number, bool, null).
func statsShape(path string, v any, nodeIDs map[string]bool, out map[string]bool) {
	var typ string
	switch v := v.(type) {
	case map[string]any:
		typ = "object"
		for k, x := range v {
			step := "." + k
			if nodeIDs[k] {
				step = ".{node}"
			}
			statsShape(path+step, x, nodeIDs, out)
		}
	case []any:
		typ = "array"
		for _, x := range v {
			statsShape(path+"[]", x, nodeIDs, out)
		}
	case string:
		typ = "string"
	case float64:
		typ = "number"
	case bool:
		typ = "bool"
	case nil:
		typ = "null"
	}
	if path != "" {
		out[path+" "+typ] = true
	}
}

// TestStatsSchema pins the /v1/stats document of both topologies with
// the reuse cache on — the shapes qens-gateway -addrs … -reuse-iou and
// -region-addrs … -reuse-iou serve — as literal sorted lists of field
// paths and JSON types: renaming, adding, dropping or retyping a field
// fails it, so a schema change is a deliberate edit of a list. Arrays
// (per-region, per-connection) and per-node maps collapse to one shape.
func TestStatsSchema(t *testing.T) {
	t.Run("leader", func(t *testing.T) {
		cfg, nodes := slabFleet(t)
		statsSchema(t, ServerConfig{Leader: slabLeader(t, cfg, nodes)}, nodes, statsSchemaLeader)
	})
	t.Run("router", func(t *testing.T) {
		_, nodes := slabFleet(t)
		statsSchema(t, ServerConfig{Router: routerFixture(t)}, nodes, statsSchemaRouter)
	})
}

// statsSchema serves cfg with the reuse cache on and a stand-in wire
// status, trains one answer and replays it, so every counter has
// moved, and compares the /v1/stats document's shape with want.
func statsSchema(t *testing.T, cfg ServerConfig, nodes []*federation.Node, want []string) {
	t.Helper()
	nodeIDs := map[string]bool{}
	for _, n := range nodes {
		nodeIDs[n.ID()] = true
	}
	cache, err := federation.NewAdaptiveCache(0.9, 8, federation.ApproxConfig{
		MaxPredictedError: 0.9, MinCoverage: 0.05, ProbeEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache, cfg.Workers, cfg.QueueDepth = cache, 2, 8
	cfg.WireStatus = func() []fleet.WireStatus {
		return []fleet.WireStatus{{NodeID: "node-0", Addr: "127.0.0.1:7001", InflightRPCs: 1, BytesOut: 10, BytesIn: 20}}
	}
	_, ts := newGatewayServer(t, cfg)
	qd := `{"bounds":{"min":[1,-500],"max":[20,75]},"selector":"query-driven","epsilon":1e-9,"top_l":2}`
	for _, reused := range []bool{false, true} {
		if code, doc, _ := postQuery(t, ts.URL, qd); code != http.StatusOK || doc["reused"] != reused {
			t.Fatalf("query: %d: %v, want reused=%v", code, doc, reused)
		}
	}
	shape := map[string]bool{}
	statsShape("", getJSONDoc(t, ts.URL+"/v1/stats"), nodeIDs, shape)
	got := make([]string, 0, len(shape))
	for line := range shape {
		got = append(got, line)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/stats shape changed; the document now reads:\n%s", strings.Join(got, "\n"))
	}
}

var statsSchemaLeader = []string{
	".latency object",
	".latency.count number",
	".latency.max_ms number",
	".latency.mean_ms number",
	".latency.p50_ms number",
	".latency.p95_ms number",
	".latency.p99_ms number",
	".latency.window object",
	".latency.window.count number",
	".latency.window.max_ms number",
	".latency.window.mean_ms number",
	".latency.window.p50_ms number",
	".latency.window.p95_ms number",
	".latency.window.p99_ms number",
	".latency.window.window_s number",
	".nodes array",
	".nodes[] string",
	".registry object",
	".registry.brute_plans number",
	".registry.delta_nodes_refetched number",
	".registry.delta_nodes_reused number",
	".registry.delta_refresh_bytes number",
	".registry.delta_refreshes number",
	".registry.epoch number",
	".registry.fetched_at string",
	".registry.full_refresh_bytes number",
	".registry.full_refreshes number",
	".registry.index_patches number",
	".registry.index_rebuilds number",
	".registry.indexed_plans number",
	".registry.invalidations number",
	".registry.nodes number",
	".registry.nodes_pruned number",
	".registry.nodes_ranked number",
	".registry.push_applied number",
	".registry.push_bytes number",
	".registry.push_dropped_stale number",
	".registry.push_dropped_unknown number",
	".registry.refreshes number",
	".registry.stale bool",
	".reuse_cache object",
	".reuse_cache.approx_enabled bool",
	".reuse_cache.approx_hits number",
	".reuse_cache.evictions number",
	".reuse_cache.fallbacks number",
	".reuse_cache.hits number",
	".reuse_cache.max_predicted_error number",
	".reuse_cache.misses number",
	".reuse_cache.probes number",
	".reuse_cache.pruned number",
	".reuse_cache.size number",
	".scheduler object",
	".scheduler.admitted number",
	".scheduler.coalesced number",
	".scheduler.completed_error number",
	".scheduler.completed_ok number",
	".scheduler.completed_timeout number",
	".scheduler.draining bool",
	".scheduler.inflight number",
	".scheduler.queue_capacity number",
	".scheduler.queue_depth number",
	".scheduler.rejected_draining number",
	".scheduler.rejected_expired number",
	".scheduler.rejected_queue_full number",
	".scheduler.workers number",
	".space object",
	".space.max array",
	".space.max[] number",
	".space.min array",
	".space.min[] number",
	".transport array",
	".transport[] object",
	".transport[].addr string",
	".transport[].bytes_in number",
	".transport[].bytes_out number",
	".transport[].inflight_rpcs number",
	".transport[].node_id string",
	".uptime_s number",
}

var statsSchemaRouter = []string{
	".latency object",
	".latency.count number",
	".latency.max_ms number",
	".latency.mean_ms number",
	".latency.p50_ms number",
	".latency.p95_ms number",
	".latency.p99_ms number",
	".latency.window object",
	".latency.window.count number",
	".latency.window.max_ms number",
	".latency.window.mean_ms number",
	".latency.window.p50_ms number",
	".latency.window.p95_ms number",
	".latency.window.p99_ms number",
	".latency.window.window_s number",
	".nodes array",
	".nodes[] string",
	".reuse_cache object",
	".reuse_cache.approx_enabled bool",
	".reuse_cache.approx_hits number",
	".reuse_cache.evictions number",
	".reuse_cache.fallbacks number",
	".reuse_cache.hits number",
	".reuse_cache.max_predicted_error number",
	".reuse_cache.misses number",
	".reuse_cache.probes number",
	".reuse_cache.pruned number",
	".reuse_cache.size number",
	".router object",
	".router.generation number",
	".router.no_route_rejects number",
	".router.queries number",
	".router.regions array",
	".router.regions[] object",
	".router.regions[].epoch number",
	".router.regions[].node_ids array",
	".router.regions[].node_ids[] string",
	".router.regions[].nodes number",
	".router.regions[].region_id string",
	".router.regions[].registry object",
	".router.regions[].registry.brute_plans number",
	".router.regions[].registry.delta_nodes_refetched number",
	".router.regions[].registry.delta_nodes_reused number",
	".router.regions[].registry.delta_refresh_bytes number",
	".router.regions[].registry.delta_refreshes number",
	".router.regions[].registry.epoch number",
	".router.regions[].registry.fetched_at string",
	".router.regions[].registry.full_refresh_bytes number",
	".router.regions[].registry.full_refreshes number",
	".router.regions[].registry.index_patches number",
	".router.regions[].registry.index_rebuilds number",
	".router.regions[].registry.indexed_plans number",
	".router.regions[].registry.invalidations number",
	".router.regions[].registry.nodes number",
	".router.regions[].registry.nodes_pruned number",
	".router.regions[].registry.nodes_ranked number",
	".router.regions[].registry.push_applied number",
	".router.regions[].registry.push_bytes number",
	".router.regions[].registry.push_dropped_stale number",
	".router.regions[].registry.push_dropped_unknown number",
	".router.regions[].registry.refreshes number",
	".router.regions[].registry.stale bool",
	".router.regions[].routed number",
	".router.regions_pruned number",
	".router.spanning_fanouts number",
	".scheduler object",
	".scheduler.admitted number",
	".scheduler.coalesced number",
	".scheduler.completed_error number",
	".scheduler.completed_ok number",
	".scheduler.completed_timeout number",
	".scheduler.draining bool",
	".scheduler.inflight number",
	".scheduler.queue_capacity number",
	".scheduler.queue_depth number",
	".scheduler.rejected_draining number",
	".scheduler.rejected_expired number",
	".scheduler.rejected_queue_full number",
	".scheduler.workers number",
	".space object",
	".space.max array",
	".space.max[] number",
	".space.min array",
	".space.min[] number",
	".transport array",
	".transport[] object",
	".transport[].addr string",
	".transport[].bytes_in number",
	".transport[].bytes_out number",
	".transport[].inflight_rpcs number",
	".transport[].node_id string",
	".uptime_s number",
}
