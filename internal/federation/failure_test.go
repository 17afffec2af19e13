package federation

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// flakyClient wraps a Client and fails training after failAfter calls.
type flakyClient struct {
	Client
	calls     int
	failAfter int
}

func (f *flakyClient) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	f.calls++
	if f.calls > f.failAfter {
		return TrainResponse{}, errors.New("simulated edge outage")
	}
	return f.Client.Train(ctx, req)
}

// deadClient fails everything after construction.
type deadClient struct{ id string }

func (d deadClient) ID() string { return d.id }
func (d deadClient) SummaryIfChanged(context.Context, uint64) (cluster.NodeSummary, bool, error) {
	return cluster.NodeSummary{}, false, errors.New("dead")
}
func (d deadClient) SubscribeSummaries(context.Context, func(cluster.NodeSummary)) (bool, error) {
	return false, errors.New("dead")
}
func (d deadClient) Train(context.Context, TrainRequest) (TrainResponse, error) {
	return TrainResponse{}, errors.New("dead")
}

func failureFleet(t *testing.T, tolerate bool) (*Leader, []*Node, *dataset.Dataset) {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 40, 60),
		lineDataset(300, 2, 1, 10, 50, 61),
		lineDataset(300, 2, 1, 20, 60, 62),
	}
	test := lineDataset(200, 2, 1, 0, 60, 63)
	var nodes []*Node
	var clients []Client
	for i, d := range data {
		n, err := NewNode(fmt.Sprintf("node-%d", i), d, 4, rng.New(uint64(70+i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		clients = append(clients, LocalClient{n})
	}
	// node-1 goes down at its first training request.
	clients[1] = &flakyClient{Client: clients[1], failAfter: 0}
	leader, err := NewLeader(Config{
		Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 10,
		TolerateFailures: tolerate, Seed: 3,
	}, data[0], clients)
	if err != nil {
		t.Fatal(err)
	}
	return leader, nodes, test
}

func TestExecuteAbortsOnFailureByDefault(t *testing.T) {
	leader, _, _ := failureFleet(t, false)
	_, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err == nil {
		t.Fatal("expected failure to abort the query")
	}
}

func TestExecuteToleratesFailures(t *testing.T) {
	leader, _, test := failureFleet(t, true)
	res, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "node-1" {
		t.Fatalf("failed list %v, want [node-1]", res.Failed)
	}
	if res.Ensemble.Size() != 2 {
		t.Fatalf("ensemble size %d, want 2 survivors", res.Ensemble.Size())
	}
	// The surviving ensemble must still produce a usable model.
	mse, n, ok := EvaluateResult(res, test)
	if !ok || n == 0 {
		t.Fatal("no test data")
	}
	if mse > 50 {
		t.Fatalf("degraded ensemble MSE %v", mse)
	}
}

func TestExecuteFailsWhenAllParticipantsFail(t *testing.T) {
	d := lineDataset(100, 1, 0, 0, 10, 64)
	n, err := NewNode("alive", d, 3, rng.New(64))
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader(Config{
		Spec: ml.PaperLR(1), TolerateFailures: true, Seed: 1,
	}, nil, []Client{&flakyClient{Client: LocalClient{n}, failAfter: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging); err == nil {
		t.Fatal("all-failed query must error even with tolerance")
	}
}

func TestSummariesFailFast(t *testing.T) {
	d := lineDataset(100, 1, 0, 0, 10, 65)
	n, _ := NewNode("alive", d, 3, rng.New(65))
	leader, err := NewLeader(Config{Spec: ml.PaperLR(1), Seed: 1},
		nil, []Client{LocalClient{n}, deadClient{id: "dead"}})
	if err != nil {
		t.Fatal(err)
	}
	// Advertisement collection is a roster-level operation: a dead
	// node must surface immediately, tolerance or not.
	if _, err := leader.Summaries(); err == nil {
		t.Fatal("summaries succeeded with a dead node")
	}
}

// driftingClient echoes an advertisement epoch one past the node's own
// on every training response, as a node that requantized mid-round
// would.
type driftingClient struct{ Client }

func (d driftingClient) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	resp, err := d.Client.Train(ctx, req)
	resp.SummaryEpoch++
	return resp, err
}

// TestAbortedQueryKeepsCompletedRounds: a failure at the third
// participant aborts the query, but the two rounds that already
// completed still count — the first node's echoed drift invalidates
// the registry, the health tracker sees two successes and one failure,
// and every contacted node gets its round-latency observation.
func TestAbortedQueryKeepsCompletedRounds(t *testing.T) {
	var clients []Client
	for i := 0; i < 3; i++ {
		// Ids unique to this test: the round metrics are process-global.
		n, err := NewNode(fmt.Sprintf("abort-%d", i), lineDataset(200, 2, 1, 0, 40, uint64(90+i)), 3, rng.New(uint64(90+i)))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, LocalClient{n})
	}
	clients[0] = driftingClient{clients[0]}
	clients[2] = &flakyClient{Client: clients[2], failAfter: 0}
	leader, err := NewLeader(Config{Spec: ml.PaperLR(1), ClusterK: 3, Seed: 3}, nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Summaries(); err != nil {
		t.Fatal(err)
	}
	epoch := leader.Registry().ReuseEpoch()
	// The round-latency histograms are process-global and outlive the
	// test (go test -count=N reruns it in one process): count the delta.
	rounds := func(i int) int64 {
		return telemetry.Default().Histogram("qens_leader_train_round_ms",
			telemetry.Label{Key: "node", Value: fmt.Sprintf("abort-%d", i)}).Count()
	}
	before := [3]int64{rounds(0), rounds(1), rounds(2)}

	_, err = execute(leader, midQuery(t), selection.AllNodes{}, ModelAveraging)
	if err == nil || !strings.Contains(err.Error(), "abort-2") {
		t.Fatalf("err = %v, want the query aborted by abort-2", err)
	}
	if got := leader.Registry().ReuseEpoch(); got <= epoch {
		t.Fatalf("reuse epoch %d did not advance past %d: abort-0's drift signal was dropped", got, epoch)
	}
	health := leader.health.Report(nil)
	if len(health) != 3 {
		t.Fatalf("health tracks %d nodes, want all 3 contacted ones", len(health))
	}
	for _, h := range health {
		wantFailures := int64(0)
		if h.NodeID == "abort-2" {
			wantFailures = 1
		}
		if h.Rounds != 1 || h.Failures != wantFailures {
			t.Fatalf("%s health: %d rounds, %d failures; want 1 round, %d failures", h.NodeID, h.Rounds, h.Failures, wantFailures)
		}
	}
	for i := 0; i < 3; i++ {
		if n := rounds(i) - before[i]; n != 1 {
			t.Fatalf("abort-%d: %d round-latency observations, want 1", i, n)
		}
	}
}
