package federation

import (
	"bytes"
	"strings"
	"testing"

	"qens/internal/selection"
	"qens/internal/telemetry"
)

// TestTracedFailureSpans: a tolerated failure shows up as an errored
// train span inside the query's trace.
func TestTracedFailureSpans(t *testing.T) {
	leader, _, _ := failureFleet(t, true)
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	leader.SetTracer(tr)
	if _, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var root telemetry.Span
	trains := 0
	erroredTrain := false
	for _, sp := range spans {
		switch sp.Name {
		case "query":
			root = sp
		case "train":
			trains++
			if sp.Error != "" && sp.Attrs["node"] == "node-1" {
				erroredTrain = true
			}
		}
	}
	if root.TraceID == "" {
		t.Fatal("no query root span")
	}
	if trains != 3 {
		t.Fatalf("train spans = %d, want 3", trains)
	}
	if !erroredTrain {
		t.Fatal("node-1 failure not attributed to an errored train span")
	}
	for _, sp := range spans {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %s escaped the trace: %+v", sp.Name, sp)
		}
	}
}

// TestExecuteAbortNamesNode: without tolerance the query aborts, but
// the error must name the failing node.
func TestExecuteAbortNamesNode(t *testing.T) {
	leader, _, _ := failureFleet(t, false)
	_, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err == nil || !strings.Contains(err.Error(), "node-1") {
		t.Fatalf("abort error = %v, want it to name node-1", err)
	}
}
