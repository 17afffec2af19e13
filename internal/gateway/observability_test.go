package gateway

import (
	"net/http"
	"testing"

	"qens/internal/telemetry"
)

// queryBody is a rectangle every node in testFleet supports.
const queryBody = `{"bounds":{"min":[5,-50],"max":[35,150]},"selector":"query-driven","epsilon":0.6,"top_l":2}`

// traceDoc mirrors the GET /v1/trace/{id} response shape.
type traceDoc struct {
	TraceID string `json:"trace_id"`
	Spans   int    `json:"spans"`
	Procs   []string
	Root    *struct {
		Name       string `json:"name"`
		DurationMS float64
		Children   []struct {
			Name string `json:"name"`
		} `json:"children"`
	} `json:"root"`
	CriticalPath struct {
		TotalMS    float64            `json:"total_ms"`
		ByCategory map[string]float64 `json:"by_category_ms"`
	} `json:"critical_path"`
}

func TestGatewayTraceEndpoints(t *testing.T) {
	fl := testFleet(t)
	tracer := telemetry.NewTracer(nil)
	tracer.SetRetention(1024)
	_, ts := newGatewayServer(t, ServerConfig{Leader: fl.Leader, Tracer: tracer})

	if code, doc, _ := postQuery(t, ts.URL, queryBody); code != http.StatusOK {
		t.Fatalf("query status %d (%v)", code, doc)
	}

	// The listing indexes the retained roots, newest first.
	var list struct {
		Traces []struct {
			TraceID    string  `json:"trace_id"`
			Name       string  `json:"name"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &list); code != http.StatusOK {
		t.Fatalf("/v1/traces status %d", code)
	}
	if len(list.Traces) != 1 {
		t.Fatalf("%d traces listed, want 1", len(list.Traces))
	}
	root := list.Traces[0]
	if root.Name != "query" || root.TraceID == "" {
		t.Fatalf("listed root = %+v", root)
	}

	// The per-trace document carries the assembled tree and a
	// critical-path decomposition that sums to its own total.
	var doc traceDoc
	if code := getJSON(t, ts.URL+"/v1/trace/"+root.TraceID, &doc); code != http.StatusOK {
		t.Fatalf("/v1/trace status %d", code)
	}
	if doc.TraceID != root.TraceID || doc.Root == nil || doc.Root.Name != "query" {
		t.Fatalf("trace doc = %+v", doc)
	}
	if doc.Spans < 3 { // at least selection + one train + aggregation under the root
		t.Fatalf("assembled %d spans, want >= 3", doc.Spans)
	}
	if doc.CriticalPath.TotalMS <= 0 {
		t.Fatalf("critical path total = %v", doc.CriticalPath.TotalMS)
	}
	sum := 0.0
	for _, ms := range doc.CriticalPath.ByCategory {
		sum += ms
	}
	if diff := sum - doc.CriticalPath.TotalMS; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("categories sum to %v, total %v", sum, doc.CriticalPath.TotalMS)
	}

	// Unknown trace: 404 with an error body.
	var errDoc map[string]any
	if code := getJSON(t, ts.URL+"/v1/trace/no-such-trace", &errDoc); code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", code)
	}
}

func TestGatewayTraceDisabled404(t *testing.T) {
	// No config tracer: the endpoints 404 instead of serving empty
	// documents, even with a process-default tracer installed (only the
	// experiment harness installs one; the gateway pins its own).
	old := telemetry.DefaultTracer()
	telemetry.SetDefaultTracer(telemetry.NewTracer(nil))
	defer telemetry.SetDefaultTracer(old)

	fl := testFleet(t)
	_, ts := newGatewayServer(t, ServerConfig{Leader: fl.Leader})
	var doc map[string]any
	if code := getJSON(t, ts.URL+"/v1/traces", &doc); code != http.StatusNotFound {
		t.Fatalf("/v1/traces status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/trace/x", &doc); code != http.StatusNotFound {
		t.Fatalf("/v1/trace status %d, want 404", code)
	}
}

func TestGatewayStatsWindow(t *testing.T) {
	fl := testFleet(t)
	_, ts := newGatewayServer(t, ServerConfig{Leader: fl.Leader})
	if code, doc, _ := postQuery(t, ts.URL, queryBody); code != http.StatusOK {
		t.Fatalf("query status %d (%v)", code, doc)
	}

	var stats struct {
		Latency struct {
			Count  int64 `json:"count"`
			Window struct {
				WindowS float64 `json:"window_s"`
				Count   int64   `json:"count"`
				P95MS   float64 `json:"p95_ms"`
				MaxMS   float64 `json:"max_ms"`
			} `json:"window"`
		} `json:"latency"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	w := stats.Latency.Window
	if w.WindowS != defaultLatencyWindow.Seconds() {
		t.Fatalf("window_s = %v, want %v", w.WindowS, defaultLatencyWindow.Seconds())
	}
	// The query just ran, so it is inside the rolling window and the
	// cumulative count agrees.
	if w.Count != 1 || stats.Latency.Count != 1 {
		t.Fatalf("window count %d / cumulative %d, want 1/1", w.Count, stats.Latency.Count)
	}
	if w.MaxMS <= 0 || w.P95MS <= 0 {
		t.Fatalf("window quantiles empty: %+v", w)
	}
}
