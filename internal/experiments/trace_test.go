package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"qens/internal/telemetry"
)

// traceFixture produces a JSONL stream with two traces: one healthy
// query (selection + 2 trains + aggregation) and one with a failed
// train span.
func traceFixture(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)

	q1 := tr.StartTrace("query")
	q1.Child("selection").End(nil)
	for i := 0; i < 2; i++ {
		sp := q1.Child("train")
		sp.SetAttr("node", "node-0")
		sp.End(nil)
	}
	q1.Child("aggregation").End(nil)
	q1.End(nil)

	q2 := tr.StartTrace("query")
	q2.Child("selection").End(nil)
	failed := q2.Child("train")
	failed.End(errTest)
	q2.End(errTest)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

var errTest = errors.New("simulated edge outage")

// summarizeFixture reads the fixture back through the JSONL sink's
// reader, as a trace file would be read.
func summarizeFixture(t *testing.T) (*TraceSummary, error) {
	spans, err := telemetry.ReadJSONL(traceFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	return SummarizeTraceSpans(spans)
}

func TestSummarizeTrace(t *testing.T) {
	sum, err := summarizeFixture(t)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Traces != 2 {
		t.Fatalf("traces = %d, want 2", sum.Traces)
	}
	if sum.Spans != 8 {
		t.Fatalf("spans = %d, want 8", sum.Spans)
	}
	if sum.Errors != 2 {
		t.Fatalf("errors = %d, want 2 (failed train + failed query)", sum.Errors)
	}
	for name, wantCount := range map[string]int{
		"query": 2, "selection": 2, "train": 3, "aggregation": 1,
	} {
		agg, ok := sum.ByName[name]
		if !ok || agg.Count != wantCount {
			t.Fatalf("ByName[%q] = %+v, want count %d", name, agg, wantCount)
		}
		if agg.Total < 0 || agg.Max < 0 {
			t.Fatalf("ByName[%q] has negative durations: %+v", name, agg)
		}
	}
}

func TestSummarizeTraceRejectsMalformed(t *testing.T) {
	if _, err := SummarizeTraceSpans([]telemetry.Span{{Name: "x"}}); err == nil {
		t.Fatal("accepted a span without a trace id")
	}
	if _, err := SummarizeTraceSpans([]telemetry.Span{{TraceID: "t"}}); err == nil {
		t.Fatal("accepted a span without a name")
	}
}

func TestSpanAggregateMean(t *testing.T) {
	if got := (SpanAggregate{}).Mean(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
	a := SpanAggregate{Count: 4, Total: 2 * time.Second}
	if got := a.Mean(); got != 500*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestTraceSummaryString(t *testing.T) {
	sum, err := summarizeFixture(t)
	if err != nil {
		t.Fatal(err)
	}
	out := sum.String()
	if !strings.Contains(out, "2 traces, 8 spans, 2 errors") {
		t.Fatalf("header missing from %q", out)
	}
	for _, name := range []string{"query", "selection", "train", "aggregation"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table missing %q:\n%s", name, out)
		}
	}
}
