package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/telemetry"
)

func lineDataset(n int, slope, intercept, lo, hi float64, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		x := src.Uniform(lo, hi)
		d.MustAppend([]float64{x, slope*x + intercept + src.Normal(0, 0.3)})
	}
	return d
}

// testFleet builds a small in-process fleet matching the federation
// package's test topology.
func testFleet(t *testing.T) *federation.Fleet {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 30, 10),
		lineDataset(300, 2, 1, 20, 60, 11),
		lineDataset(300, 2, 1, 50, 90, 12),
	}
	cfg := federation.Config{Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 8, Seed: 1}
	fleet, err := federation.NewSimulatedFleet(data, cfg, federation.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// gatedClient delays Train until the gate opens — it makes queue
// overflow, coalescing and deadline behavior deterministic over real
// HTTP.
type gatedClient struct {
	federation.Client
	gate    <-chan struct{}
	arrived *atomic.Int64 // Train calls that reached the gate
}

func (g gatedClient) Train(ctx context.Context, req federation.TrainRequest) (federation.TrainResponse, error) {
	g.arrived.Add(1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return federation.TrainResponse{}, ctx.Err()
	}
	return g.Client.Train(ctx, req)
}

// gatedLeader wires a leader whose every training round blocks on
// gate, and counts the Train calls that reached it.
func gatedLeader(t *testing.T, gate <-chan struct{}) (*federation.Leader, *atomic.Int64) {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(200, 2, 1, 0, 40, 20),
		lineDataset(200, 2, 1, 10, 50, 21),
	}
	var clients []federation.Client
	arrived := new(atomic.Int64)
	for i, d := range data {
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i), d, 3, rng.New(uint64(30+i)))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, gatedClient{Client: federation.LocalClient{Node: n}, gate: gate, arrived: arrived})
	}
	leader, err := federation.NewLeader(federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 5, Seed: 2,
	}, data[0], clients)
	if err != nil {
		t.Fatal(err)
	}
	return leader, arrived
}

func newGatewayServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = &telemetry.Registry{}
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, newHTTPServer(t, s)
}

func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// doPost submits one query; goroutine-safe (no testing.T).
func doPost(url string, body string) (int, map[string]any, http.Header, error) {
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return resp.StatusCode, nil, resp.Header, fmt.Errorf("status %d: non-JSON body %q", resp.StatusCode, raw)
	}
	return resp.StatusCode, doc, resp.Header, nil
}

func postQuery(t *testing.T, url string, body string) (int, map[string]any, http.Header) {
	t.Helper()
	code, doc, hdr, err := doPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, doc, hdr
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestGatewayE2EConcurrentClients is the acceptance scenario: 32
// concurrent clients against a simulated fleet; every admitted query
// succeeds and the accounting adds up.
func TestGatewayE2EConcurrentClients(t *testing.T) {
	fleet := testFleet(t)
	cache, err := federation.NewReuseCache(0.9, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newGatewayServer(t, ServerConfig{
		Leader: fleet.Leader, Cache: cache,
		Workers: 4, QueueDepth: 64, CoalesceIoU: 0.95,
	})

	const clients = 32
	bodies := make([]string, 4)
	for i := range bodies {
		lo := float64(5 * i)
		bodies[i] = fmt.Sprintf(
			`{"bounds":{"min":[%g,-50],"max":[%g,150]},"selector":"query-driven","epsilon":0.6,"top_l":2}`,
			lo, lo+30)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			code, doc, _, err := doPost(ts.URL, bodies[c%len(bodies)])
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if code != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d (%v)", c, code, doc["error"])
				return
			}
			parts, _ := doc["participants"].([]any)
			if len(parts) == 0 {
				errs <- fmt.Errorf("client %d: no participants in %v", c, doc)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	total := stats.Scheduler.Admitted + stats.Scheduler.Coalesced + stats.Scheduler.RejectedFull
	if total != clients {
		t.Fatalf("admitted %d + coalesced %d + rejected %d != %d clients",
			stats.Scheduler.Admitted, stats.Scheduler.Coalesced, stats.Scheduler.RejectedFull, clients)
	}
	if stats.Scheduler.RejectedFull != 0 {
		t.Fatalf("queue depth 64 rejected %d of %d", stats.Scheduler.RejectedFull, clients)
	}
	if stats.Scheduler.CompletedOK != stats.Scheduler.Admitted {
		t.Fatalf("admitted %d, completed ok %d", stats.Scheduler.Admitted, stats.Scheduler.CompletedOK)
	}
	if stats.Latency.Count == 0 || stats.Latency.MaxMS <= 0 {
		t.Fatalf("latency histogram empty: %+v", stats.Latency)
	}
	if stats.Space == nil || stats.Space.Dims() != 2 {
		t.Fatalf("stats space missing: %+v", stats.Space)
	}
	if stats.Reuse == nil || stats.Reuse.Hits+stats.Reuse.Misses == 0 {
		t.Fatalf("reuse cache stats missing: %+v", stats.Reuse)
	}
	// Identical concurrent queries (4 distinct bodies, 32 clients)
	// must have shared work somewhere: either coalesced in-flight or
	// served from the reuse cache.
	if stats.Scheduler.Coalesced+int64(stats.Reuse.Hits) == 0 {
		t.Fatal("32 clients over 4 distinct queries shared no work")
	}
}

// TestGatewayCoalesceDeterministic pins coalescing down with a gated
// fleet: the duplicate of a blocked in-flight query must attach to it.
func TestGatewayCoalesceDeterministic(t *testing.T) {
	gate := make(chan struct{})
	leader, _ := gatedLeader(t, gate)
	_, ts := newGatewayServer(t, ServerConfig{
		Leader: leader, Workers: 2, QueueDepth: 8, CoalesceIoU: 0.95,
	})

	body := `{"id":"orig","bounds":{"min":[5,-50],"max":[35,150]},"selector":"query-driven","epsilon":0.6,"top_l":2,"async":true}`
	if code, doc, _ := postQuery(t, ts.URL, body); code != http.StatusAccepted {
		t.Fatalf("async submit: status %d (%v)", code, doc)
	}
	// Identical bounds, new id: must coalesce while orig is gated.
	dup := strings.Replace(body, `"orig"`, `"dup"`, 1)
	if code, doc, _ := postQuery(t, ts.URL, dup); code != http.StatusAccepted {
		t.Fatalf("dup submit: status %d (%v)", code, doc)
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Scheduler.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", stats.Scheduler.Coalesced)
	}
	close(gate)

	// Both records converge to done, sharing one execution.
	for _, id := range []string{"orig", "dup"} {
		rec := awaitRecord(t, ts.URL, id)
		if rec.Status != recordDone || rec.Result == nil || len(rec.Result.Participants) == 0 {
			t.Fatalf("record %s: %s %s, result %v", id, rec.Status, rec.Error, rec.Result)
		}
		if id == "dup" && !rec.Result.Coalesced {
			t.Fatal("dup record not marked coalesced")
		}
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Scheduler.Admitted != 1 || stats.Scheduler.CompletedOK != 1 {
		t.Fatalf("want one shared execution, got %+v", stats.Scheduler)
	}
}

// TestGatewayQueueOverflow429: with the worker wedged and the queue
// full, the gateway sheds load with 429 + Retry-After.
func TestGatewayQueueOverflow429(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	leader, _ := gatedLeader(t, gate)
	_, ts := newGatewayServer(t, ServerConfig{
		Leader: leader, Workers: 1, QueueDepth: 1, CoalesceIoU: -1, // coalescing off
	})

	// Occupy the worker, then wait until the query is actually
	// executing (inflight = 1).
	if code, doc, _ := postQuery(t, ts.URL,
		`{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"all-nodes","async":true}`); code != http.StatusAccepted {
		t.Fatalf("status %d (%v)", code, doc)
	}
	awaitInflight(t, ts.URL, 1)
	// Fill the queue.
	if code, doc, _ := postQuery(t, ts.URL,
		`{"bounds":{"min":[10,-50],"max":[30,150]},"selector":"all-nodes","async":true}`); code != http.StatusAccepted {
		t.Fatalf("status %d (%v)", code, doc)
	}
	// Overflow.
	code, doc, hdr := postQuery(t, ts.URL,
		`{"bounds":{"min":[20,-50],"max":[40,150]},"selector":"all-nodes","async":true}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%v), want 429", code, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestGatewayExpiredDeadline: a deadline already in the past returns
// promptly with the context error, without occupying the fleet.
func TestGatewayExpiredDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	leader, _ := gatedLeader(t, gate)
	_, ts := newGatewayServer(t, ServerConfig{Leader: leader, Workers: 1, QueueDepth: 4})

	past := time.Now().Add(-time.Minute).Format(time.RFC3339)
	start := time.Now()
	code, doc, _ := postQuery(t, ts.URL, fmt.Sprintf(
		`{"bounds":{"min":[0,-50],"max":[20,150]},"deadline":%q}`, past))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", code, doc)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, context.DeadlineExceeded.Error()) {
		t.Fatalf("error %q does not name the context error", msg)
	}
	if time.Since(start) > time.Second {
		t.Fatal("expired deadline did not return promptly")
	}
	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Scheduler.Admitted != 0 {
		t.Fatal("expired query was admitted")
	}
}

// TestGatewayExecutionTimeout504: a tiny budget on a wedged fleet
// times the query out with 504.
func TestGatewayExecutionTimeout504(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	leader, _ := gatedLeader(t, gate)
	_, ts := newGatewayServer(t, ServerConfig{Leader: leader, Workers: 1, QueueDepth: 4})

	code, doc, _ := postQuery(t, ts.URL,
		`{"bounds":{"min":[0,-50],"max":[20,150]},"timeout_ms":60}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", code, doc)
	}
}

// TestGatewayDraining503: once draining, new queries get 503 +
// Retry-After and /healthz reports the state.
func TestGatewayDraining503(t *testing.T) {
	fleet := testFleet(t)
	s, ts := newGatewayServer(t, ServerConfig{Leader: fleet.Leader, Workers: 1, QueueDepth: 4})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, doc, hdr := postQuery(t, ts.URL,
		`{"bounds":{"min":[0,-50],"max":[20,150]}}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want 503", code, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if draining, _ := health["draining"].(bool); !draining {
		t.Fatalf("healthz %v does not report draining", health)
	}
}

// TestGatewayBadRequests covers the 400/404 surface. Every 400 is
// decided before admission: none of the rows takes a queue slot.
func TestGatewayBadRequests(t *testing.T) {
	fleet := testFleet(t)
	s, ts := newGatewayServer(t, ServerConfig{Leader: fleet.Leader})

	cases := []struct {
		name string
		body string
		want string // error substring, when the row pins one
	}{
		{"malformed json", `{"bounds":`, ""},
		{"unknown field", `{"boundz":{"min":[0],"max":[1]}}`, ""},
		{"invalid bounds", `{"bounds":{"min":[10,0],"max":[0,10]}}`, ""},
		{"unknown selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"psychic"}`, "unknown selector"},
		{"auto selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"auto"}`, "unknown selector"},
		{"bandit selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"bandit"}`, "unknown selector"},
		{"contribution selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"contribution"}`, "unknown selector"},
		{"random selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"random"}`, "unknown selector"},
		{"game-theory selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"game-theory"}`, "unknown selector"},
		{"fairness selector", `{"bounds":{"min":[0,-50],"max":[20,150]},"selector":"fairness"}`, "unknown selector"},
		{"negative top_l", `{"bounds":{"min":[0,-50],"max":[20,150]},"top_l":-1}`, "exactly one of TopL"},
		{"negative epsilon", `{"bounds":{"min":[0,-50],"max":[20,150]},"epsilon":-0.5}`, "must be > 0"},
		{"negative psi", `{"bounds":{"min":[0,-50],"max":[20,150]},"psi":-1}`, "exactly one of TopL"},
		{"psi and top_l", `{"bounds":{"min":[0,-50],"max":[20,150]},"psi":0.3,"top_l":2}`, "exactly one of TopL"},
		{"bad aggregation", `{"bounds":{"min":[0,-50],"max":[20,150]},"aggregation":"median"}`, ""},
		{"negative timeout", `{"bounds":{"min":[0,-50],"max":[20,150]},"timeout_ms":-5}`, ""},
		{"bad deadline", `{"bounds":{"min":[0,-50],"max":[20,150]},"deadline":"yesterday"}`, ""},
	}
	for _, tc := range cases {
		code, doc, _ := postQuery(t, ts.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", tc.name, code, doc)
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, msg, tc.want)
		}
	}
	if n := s.sched.SchedStats().Admitted; n != 0 {
		t.Errorf("%d bad requests admitted, want 0", n)
	}
	if code, doc := postPlan(t, ts.URL, `{"bounds":{"min":[0,-50],"max":[20,150]},"top_l":-1}`); code != http.StatusBadRequest {
		t.Errorf("plan with negative top_l: status %d (%v), want 400", code, doc)
	}
	resp, err := http.Get(ts.URL + "/v1/query/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown record: status %d, want 404", resp.StatusCode)
	}
}

// TestGatewayMetricsExposition: the Prometheus surface carries the
// gateway families after traffic.
func TestGatewayMetricsExposition(t *testing.T) {
	fleet := testFleet(t)
	reg := &telemetry.Registry{}
	_, ts := newGatewayServer(t, ServerConfig{Leader: fleet.Leader, Registry: reg})
	if code, doc, _ := postQuery(t, ts.URL,
		`{"bounds":{"min":[5,-50],"max":[35,150]},"selector":"query-driven","epsilon":0.6,"top_l":2}`); code != http.StatusOK {
		t.Fatalf("status %d (%v)", code, doc)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"qens_gateway_admitted_total 1",
		"qens_gateway_e2e_ms_count 1",
		"qens_gateway_queue_depth",
		"qens_gateway_completed_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGatewayRecordEviction: the record store stays bounded.
func TestRecordStoreEviction(t *testing.T) {
	rs := newRecordStore(2)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("q%d", i)
		rs.put(id, &record{ID: id, Status: recordPending})
	}
	if _, ok := rs.get("q0"); ok {
		t.Fatal("oldest record not evicted")
	}
	for _, id := range []string{"q1", "q2"} {
		if _, ok := rs.get(id); !ok {
			t.Fatalf("record %s missing", id)
		}
	}
	rs.update("q2", func(r *record) { r.Status = recordDone })
	rec, _ := rs.get("q2")
	if rec.Status != recordDone {
		t.Fatal("update lost")
	}
}
