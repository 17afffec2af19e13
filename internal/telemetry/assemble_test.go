package telemetry

import (
	"math"
	"reflect"
	"testing"
	"time"
)

var asmBase = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// mkspan builds a test span on the shared base clock; bounds are
// offsets in milliseconds.
func mkspan(trace, id, parent, name string, startMS, endMS int, attrs map[string]string) Span {
	start := asmBase.Add(time.Duration(startMS) * time.Millisecond)
	end := asmBase.Add(time.Duration(endMS) * time.Millisecond)
	return Span{
		TraceID: trace, SpanID: id, ParentID: parent, Name: name,
		Start: start, End: end,
		DurationMS: float64(endMS - startMS),
		Attrs:      attrs,
	}
}

// queryTrace is the canonical shape: a leader query with selection,
// one traced RPC carrying node phase spans, and aggregation.
func queryTrace() []Span {
	node := map[string]string{"proc": "node-0", "node": "node-0"}
	return []Span{
		mkspan("t1", "root", "", "query", 0, 100, nil),
		mkspan("t1", "sel", "root", "selection", 0, 10, nil),
		mkspan("t1", "rpc", "root", "train", 10, 80, nil),
		mkspan("t1", "fit", "rpc", "node.fit", 20, 70, node),
		mkspan("t1", "agg", "root", "aggregation", 80, 95, nil),
		// A second trace in the stream must be ignored.
		mkspan("t2", "other", "", "query", 0, 5, nil),
	}
}

func TestAssembleTrace(t *testing.T) {
	tree, err := AssembleTrace(queryTrace(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	if tree.TraceID != "t1" || tree.Spans != 5 {
		t.Fatalf("tree = %s with %d spans, want t1 with 5", tree.TraceID, tree.Spans)
	}
	if tree.Root == nil || tree.Root.Name != "query" {
		t.Fatalf("root = %+v", tree.Root)
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans = %d, want 0", len(tree.Orphans))
	}
	if !reflect.DeepEqual(tree.Procs, []string{"leader", "node-0"}) {
		t.Fatalf("procs = %v", tree.Procs)
	}
	// Children sorted by start: selection, train, aggregation.
	var names []string
	for _, c := range tree.Root.Children {
		names = append(names, c.Name)
	}
	if !reflect.DeepEqual(names, []string{"selection", "train", "aggregation"}) {
		t.Fatalf("root children = %v", names)
	}
	rpc := tree.Root.Children[1]
	if len(rpc.Children) != 1 || rpc.Children[0].Name != "node.fit" {
		t.Fatalf("rpc children = %+v", rpc.Children)
	}
}

func TestAssembleTraceErrors(t *testing.T) {
	if _, err := AssembleTrace(nil, "missing"); err == nil {
		t.Fatal("empty stream assembled")
	}
	// All spans have parents: no root.
	rootless := []Span{mkspan("t", "a", "gone", "train", 0, 5, nil)}
	if _, err := AssembleTrace(rootless, "t"); err == nil {
		t.Fatal("rootless trace assembled")
	}
}

func TestAssembleTraceOrphans(t *testing.T) {
	spans := []Span{
		mkspan("t", "root", "", "query", 0, 10, nil),
		mkspan("t", "lost", "dropped-by-retention", "node.fit", 2, 8,
			map[string]string{"proc": "node-3"}),
	}
	tree, err := AssembleTrace(spans, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Orphans) != 1 || tree.Orphans[0].SpanID != "lost" {
		t.Fatalf("orphans = %+v", tree.Orphans)
	}
	if tree.Spans != 2 {
		t.Fatalf("span count %d excludes the orphan", tree.Spans)
	}
	if !reflect.DeepEqual(tree.Procs, []string{"leader", "node-3"}) {
		t.Fatalf("procs = %v", tree.Procs)
	}
}

// TestAssembleTraceLaterSpanWins: re-recording a span ID replaces the
// earlier version in place.
func TestAssembleTraceLaterSpanWins(t *testing.T) {
	spans := []Span{
		mkspan("t", "root", "", "query", 0, 10, nil),
		mkspan("t", "dup", "root", "train", 0, 3, nil),
		mkspan("t", "dup", "root", "train", 0, 7, nil), // corrected duration
	}
	tree, err := AssembleTrace(spans, "t")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Spans != 2 {
		t.Fatalf("spans = %d, want 2 (duplicate collapsed)", tree.Spans)
	}
	if got := tree.Root.Children[0].DurationMS; got != 7 {
		t.Fatalf("duplicate span duration = %v, want the later 7", got)
	}
}

func TestSpanCategory(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children bool
		want     string
	}{
		{"selection", false, "plan"},
		{"train", false, "rpc"},
		{"train", true, "wire"},
		{"aggregation", false, "aggregate"},
		{"node.queue", false, "queue"},
		{"node.fit", false, "train"},
		{"query", true, "other"},
	} {
		if got := SpanCategory(tc.name, tc.children); got != tc.want {
			t.Errorf("SpanCategory(%q, %v) = %q, want %q", tc.name, tc.children, got, tc.want)
		}
	}
}

// TestCriticalPathExactSum checks the core invariant: the category
// attribution partitions the root window exactly.
func TestCriticalPathExactSum(t *testing.T) {
	tree, err := AssembleTrace(queryTrace(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	cp := tree.CriticalPath()
	want := map[string]float64{
		"plan":      10, // selection [0,10)
		"wire":      20, // rpc self [10,20) + [70,80)
		"train":     50, // node.fit [20,70)
		"aggregate": 15, // aggregation [80,95)
		"other":     5,  // root tail [95,100)
	}
	for cat, ms := range want {
		if math.Abs(cp.ByCategory[cat]-ms) > 1e-9 {
			t.Errorf("ByCategory[%q] = %v, want %v", cat, cp.ByCategory[cat], ms)
		}
	}
	if math.Abs(cp.TotalMS-100) > 1e-9 {
		t.Fatalf("TotalMS = %v, want 100", cp.TotalMS)
	}
	sum := 0.0
	for _, v := range cp.ByCategory {
		sum += v
	}
	if math.Abs(sum-cp.TotalMS) > 1e-9 {
		t.Fatalf("categories sum to %v, total %v", sum, cp.TotalMS)
	}
	if s := cp.ByCategory["train"]; math.Abs(s-50) > 1e-9 {
		t.Fatalf("train = %v ms, want half the total", s)
	}
}

// TestCriticalPathBlockingChild: when children overlap, time descends
// into the one that ends last — the one actually gating progress.
func TestCriticalPathBlockingChild(t *testing.T) {
	spans := []Span{
		mkspan("t", "root", "", "query", 0, 100, nil),
		mkspan("t", "a", "root", "train", 10, 60, nil),       // rpc, ends last
		mkspan("t", "b", "root", "aggregation", 10, 40, nil), // shadowed
	}
	tree, err := AssembleTrace(spans, "t")
	if err != nil {
		t.Fatal(err)
	}
	cp := tree.CriticalPath()
	if math.Abs(cp.ByCategory["rpc"]-50) > 1e-9 {
		t.Fatalf("rpc = %v, want 50 (blocking child owns the overlap)", cp.ByCategory["rpc"])
	}
	if cp.ByCategory["aggregate"] != 0 {
		t.Fatalf("aggregate = %v, want 0 (fully shadowed)", cp.ByCategory["aggregate"])
	}
	if math.Abs(cp.ByCategory["other"]-50) > 1e-9 {
		t.Fatalf("other = %v, want 50 (root head+tail)", cp.ByCategory["other"])
	}
}

// TestCriticalPathClipsChildren: a child overrunning its parent (clock
// skew, late flush) is clipped to the parent window so the sum
// invariant survives.
func TestCriticalPathClipsChildren(t *testing.T) {
	spans := []Span{
		mkspan("t", "root", "", "query", 0, 50, nil),
		mkspan("t", "late", "root", "train", 40, 80, nil),
	}
	tree, err := AssembleTrace(spans, "t")
	if err != nil {
		t.Fatal(err)
	}
	cp := tree.CriticalPath()
	if math.Abs(cp.TotalMS-50) > 1e-9 {
		t.Fatalf("TotalMS = %v, want the root's 50", cp.TotalMS)
	}
	if math.Abs(cp.ByCategory["rpc"]-10) > 1e-9 {
		t.Fatalf("rpc = %v, want clipped 10", cp.ByCategory["rpc"])
	}
}
