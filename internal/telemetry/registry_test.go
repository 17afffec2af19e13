package telemetry

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCounterFamilies(t *testing.T) {
	var r Registry
	r.Counter("requests_total").Add(2)
	r.Counter("requests_total").Inc() // same series
	r.Counter("requests_total", Label{"node", "a"}).Add(5)
	r.Counter("requests_total", Label{"node", "b"}).Add(7)

	if got := r.Counter("requests_total").Value(); got != 3 {
		t.Fatalf("unlabeled series = %d", got)
	}
	if got := r.Counter("requests_total", Label{"node", "a"}).Value(); got != 5 {
		t.Fatalf("node=a series = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 3 {
		t.Fatalf("snapshot has %d counter series, want 3", len(snap.Counters))
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	var r Registry
	r.Counter("m", Label{"a", "1"}, Label{"b", "2"}).Inc()
	r.Counter("m", Label{"b", "2"}, Label{"a", "1"}).Inc() // same series, reordered
	if got := r.Counter("m", Label{"a", "1"}, Label{"b", "2"}).Value(); got != 2 {
		t.Fatalf("label order produced distinct series: %d", got)
	}
}

// TestRegistryLookupHitAllocatesNothing: finding an existing series is
// on the per-RPC and per-query path, so it must not allocate — for no,
// one, two, reordered and quoted labels, of every kind.
func TestRegistryLookupHitAllocatesNothing(t *testing.T) {
	var r Registry
	node, typ := Label{"node", `edge "7"`}, Label{"type", "train"}
	for name, hit := range map[string]func(){
		"no label":  func() { r.Counter("c").Inc() },
		"one label": func() { r.Histogram("h", node).Observe(1) },
		"two":       func() { r.Counter("c2", node, typ).Inc() },
		"reordered": func() { r.Counter("c2", typ, node).Inc() },
		"gauge":     func() { r.Gauge("g", node).Set(1) },
	} {
		hit() // create the series
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", name, n)
		}
	}
	if got := r.Counter("c2", node, typ).Value(); got != 2*(1+1+100) { // create + AllocsPerRun's warm-up + runs, twice
		t.Fatalf("reordered labels hit another series: %d", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	var r Registry
	r.Counter("metric_x").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Histogram("metric_x")
}

func TestRegistryGauge(t *testing.T) {
	var r Registry
	g := r.Gauge("shard_size")
	g.Set(1234)
	if g.Value() != 1234 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Set(10)
	if got := r.Gauge("shard_size").Value(); got != 10 {
		t.Fatalf("gauge after reset lookup = %v", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := []Label{{"node", string(rune('a' + w%4))}}
			for i := 0; i < 2000; i++ {
				r.Counter("ops_total", node...).Inc()
				r.Histogram("op_ms", node...).Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, c := range r.Snapshot().Counters {
		total += int64(c.Value)
	}
	if total != 8*2000 {
		t.Fatalf("total ops = %d, want %d", total, 8*2000)
	}
}

func TestWritePrometheus(t *testing.T) {
	var r Registry
	r.Counter("qens_train_rounds_total", Label{"node", "node-3"}).Add(12)
	r.SetHelp("qens_train_rounds_total", "Training rounds executed.")
	r.Gauge("qens_uptime_s").Set(42.5)
	h := r.Histogram("qens_train_round_ms", Label{"node", "node-3"})
	for _, v := range []float64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP qens_train_rounds_total Training rounds executed.",
		"# TYPE qens_train_rounds_total counter",
		`qens_train_rounds_total{node="node-3"} 12`,
		"# TYPE qens_train_round_ms histogram",
		`qens_train_round_ms_bucket{node="node-3",le="+Inf"} 5`,
		`qens_train_round_ms_sum{node="node-3"} 1015`,
		`qens_train_round_ms_count{node="node-3"} 5`,
		`qens_train_round_ms_p50{node="node-3"}`,
		"# TYPE qens_uptime_s gauge",
		"qens_uptime_s 42.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Cumulative le buckets must be non-decreasing in rendered order.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "qens_train_round_ms_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts decreasing at %q", line)
		}
		prev = n
	}
}

func TestRegistryReset(t *testing.T) {
	var r Registry
	r.Counter("a").Inc()
	r.Reset()
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("reset left counters behind")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	var r Registry
	r.Counter("qens_train_rounds_total", Label{"node", "n0"}).Add(3)
	handler := NewHTTPHandler(&r, func() map[string]any {
		return map[string]any{"shard_size": 500, "k": 5}
	}, time.Now().Add(-3*time.Second))
	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `qens_train_rounds_total{node="n0"} 3`) {
		t.Fatalf("/metrics -> %d\n%s", code, body)
	}
	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz -> %d", code)
	}
	for _, want := range []string{`"status":"ok"`, `"shard_size":500`, `"k":5`, `"uptime_s":`} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz missing %s in %s", want, body)
		}
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ -> %d", code)
	}
}
