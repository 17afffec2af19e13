package federation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// healthyFleet is failureFleet without the outage: all three nodes
// train successfully.
func healthyFleet(t *testing.T) *Leader {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 40, 60),
		lineDataset(300, 2, 1, 10, 50, 61),
		lineDataset(300, 2, 1, 20, 60, 62),
	}
	var clients []Client
	for i, d := range data {
		n, err := NewNode(fmt.Sprintf("node-%d", i), d, 4, rng.New(uint64(80+i)))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, LocalClient{n})
	}
	leader, err := NewLeader(Config{
		Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 10, Seed: 3,
	}, data[0], clients)
	if err != nil {
		t.Fatal(err)
	}
	return leader
}

// TestNodeRoundsRecorded: a healthy query records one NodeRound per
// participant, in execution order, with positive elapsed times.
func TestNodeRoundsRecorded(t *testing.T) {
	leader := healthyFleet(t)
	res, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeRounds) != len(res.Participants) {
		t.Fatalf("NodeRounds = %d, participants = %d", len(res.NodeRounds), len(res.Participants))
	}
	for i, nr := range res.NodeRounds {
		if nr.NodeID != res.Participants[i].NodeID {
			t.Fatalf("round %d node %s, participant %s", i, nr.NodeID, res.Participants[i].NodeID)
		}
		if nr.Failed() || nr.Err != "" {
			t.Fatalf("healthy round reported failure: %+v", nr)
		}
		if nr.Elapsed < 0 {
			t.Fatalf("negative elapsed: %+v", nr)
		}
	}
}

// TestNodeRoundsShowToleratedFailure: with TolerateFailures the
// skipped node must stay visible in NodeRounds with its error string
// and a recorded elapsed time — the satellite requirement that failure
// skips are not silent.
func TestNodeRoundsShowToleratedFailure(t *testing.T) {
	leader, _, _ := failureFleet(t, true)
	res, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeRounds) != 3 {
		t.Fatalf("NodeRounds = %d, want 3 (failed rounds must be recorded)", len(res.NodeRounds))
	}
	var failed *NodeRound
	for i := range res.NodeRounds {
		if res.NodeRounds[i].NodeID == "node-1" {
			failed = &res.NodeRounds[i]
		}
	}
	if failed == nil {
		t.Fatalf("failed node-1 missing from NodeRounds %+v", res.NodeRounds)
	}
	if !failed.Failed() || !strings.Contains(failed.Err, "simulated edge outage") {
		t.Fatalf("failed round = %+v, want simulated edge outage", *failed)
	}
	if failed.Elapsed < 0 {
		t.Fatalf("failed round has negative elapsed: %+v", failed)
	}
	// Survivors are recorded as healthy rounds.
	healthy := 0
	for _, nr := range res.NodeRounds {
		if !nr.Failed() {
			healthy++
		}
	}
	if healthy != 2 {
		t.Fatalf("healthy rounds = %d, want 2", healthy)
	}
}

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

// TestExecuteAbortNodeRoundStillRecorded: without tolerance the query
// aborts, but the error must name the failing node.
func TestExecuteAbortNamesNode(t *testing.T) {
	leader, _, _ := failureFleet(t, false)
	_, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err == nil || !strings.Contains(err.Error(), "node-1") {
		t.Fatalf("abort error = %v, want it to name node-1", err)
	}
}
