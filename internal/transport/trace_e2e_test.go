package transport

import (
	"bytes"
	"context"
	"testing"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// TestTraceEndToEndOverTCP is the acceptance test for the tracing
// tentpole: a federated query executed against real TCP daemons must
// emit a JSONL trace whose selection, per-node train, and aggregation
// spans all share one trace ID rooted at the query span.
func TestTraceEndToEndOverTCP(t *testing.T) {
	datasets := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 30, 40),
		lineDataset(300, 2, 1, 10, 50, 41),
		lineDataset(300, 2, 1, 20, 60, 42),
	}
	names := []string{"edge-a", "edge-b", "edge-c"}
	var clients []federation.Client
	for i, d := range datasets {
		node, err := federation.NewNode(names[i], d, 5, rng.New(uint64(50+i)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(silent)
		t.Cleanup(func() { srv.Close() })
		c, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
	}

	var jsonl bytes.Buffer
	tracer := telemetry.NewTracer(&jsonl)

	cfg := federation.Config{Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 10, Seed: 7}
	leader, err := federation.NewLeader(cfg, datasets[0], clients)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetTracer(tracer)

	q, err := query.New("q-trace", geometry.MustRect([]float64{10, -50}, []float64{40, 150}))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := leader.Execute(context.Background(), federation.Request{Query: q, Selector: selection.AllNodes{}, Aggregation: federation.ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ensemble == nil || res.Ensemble.Size() != len(clients) {
		t.Fatalf("ensemble = %+v", res.Ensemble)
	}

	// The trace must have streamed as JSONL and parse back. Flush
	// first: the tracer sinks through a buffered encoder.
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("parse JSONL trace: %v", err)
	}
	byName := map[string][]telemetry.Span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["query"]) != 1 {
		t.Fatalf("query spans = %d, want 1 (spans: %+v)", len(byName["query"]), spans)
	}
	root := byName["query"][0]
	if root.TraceID == "" || root.SpanID == "" {
		t.Fatalf("root span missing ids: %+v", root)
	}
	if root.ParentID != "" {
		t.Fatalf("root span has a parent: %+v", root)
	}
	if got := root.Attrs["query"]; got != "q-trace" {
		t.Fatalf("root query attr = %q", got)
	}
	if len(byName["selection"]) != 1 {
		t.Fatalf("selection spans = %d, want 1", len(byName["selection"]))
	}
	if len(byName["aggregation"]) != 1 {
		t.Fatalf("aggregation spans = %d, want 1", len(byName["aggregation"]))
	}
	trains := byName["train"]
	if len(trains) != len(clients) {
		t.Fatalf("train spans = %d, want %d", len(trains), len(clients))
	}
	// Each participant's round over TCP is recorded once, as its train
	// span: the node, the leader-observed duration and no error.
	seenNodes := map[string]bool{}
	for _, sp := range trains {
		seenNodes[sp.Attrs["node"]] = true
		if sp.Error != "" || sp.DurationMS <= 0 {
			t.Fatalf("train span for %s: error %q, duration %vms", sp.Attrs["node"], sp.Error, sp.DurationMS)
		}
	}
	for _, name := range names {
		if !seenNodes[name] {
			t.Fatalf("no train span for node %s (attrs seen: %v)", name, seenNodes)
		}
	}

	// Every span shares the root's trace ID; leader-side spans point
	// back at the root, node-side spans at the train RPC span that
	// solicited them.
	trainIDs := map[string]bool{}
	for _, sp := range trains {
		trainIDs[sp.SpanID] = true
	}
	for _, sp := range spans {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.TraceID, root.TraceID)
		}
		switch {
		case sp.Name == "query":
		case len(sp.Name) > 5 && sp.Name[:5] == "node.":
			if !trainIDs[sp.ParentID] {
				t.Fatalf("node span %s parent = %s, not a train span", sp.Name, sp.ParentID)
			}
		default:
			if sp.ParentID != root.SpanID {
				t.Fatalf("span %s parent = %s, want root %s", sp.Name, sp.ParentID, root.SpanID)
			}
		}
		if sp.DurationMS < 0 {
			t.Fatalf("span %s has negative duration %v", sp.Name, sp.DurationMS)
		}
	}

	// Cross-process assembly: the tree must contain spans from the
	// leader process plus every node engine, all under one trace ID.
	tree, err := telemetry.AssembleTrace(spans, root.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("assembled trace has %d orphans", len(tree.Orphans))
	}
	if len(tree.Procs) < 2 {
		t.Fatalf("trace spans %d processes, want >= 2 (leader + node engines): %v", len(tree.Procs), tree.Procs)
	}
	procs := map[string]bool{}
	for _, p := range tree.Procs {
		procs[p] = true
	}
	if !procs["leader"] {
		t.Fatalf("no leader-process spans in %v", tree.Procs)
	}
	for _, name := range names {
		if !procs[name] {
			t.Fatalf("no spans from node process %s in %v", name, tree.Procs)
		}
	}
	if tree.Spans != len(spans) {
		t.Fatalf("assembled %d spans, recorded %d", tree.Spans, len(spans))
	}
	if len(byName["node.fit"]) == 0 {
		t.Fatal("assembled trace carries no node.fit span")
	}

	// Critical-path attribution must decompose the root span's wall
	// time: categories sum to the root duration within 5%.
	cp := tree.CriticalPath()
	if cp.TotalMS <= 0 {
		t.Fatalf("critical path total = %v", cp.TotalMS)
	}
	rootMS := tree.Root.DurationMS
	if diff := cp.TotalMS - rootMS; diff < -0.05*rootMS || diff > 0.05*rootMS {
		t.Fatalf("critical path total %.3fms vs root %.3fms (>5%% apart): %+v", cp.TotalMS, rootMS, cp.ByCategory)
	}
	for _, cat := range []string{"plan", "aggregate"} {
		if cp.ByCategory[cat] < 0 {
			t.Fatalf("category %s negative: %+v", cat, cp.ByCategory)
		}
	}
}
