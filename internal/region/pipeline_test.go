package region

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// The shared execute pipeline — Leader.Round feeding
// federation.Assemble — is reached three ways: Leader.Execute driving
// sequential rounds, a caller (the region tier) driving one concurrent
// Round and assembling the outcomes itself, and the root Router
// scattering its regions' outcomes into one Assemble. These tests run
// the same inputs through all three and require the same answers.

// faults describes the fleet a pipeline test runs on: the region_test
// fleet with one node left out of the roster, or with one node's
// training rounds failing.
type faults struct {
	without  string
	dead     string
	tolerate bool
}

var errOutage = errors.New("simulated edge outage")

// deadClient fails every training round.
type deadClient struct{ federation.Client }

func (deadClient) Train(context.Context, federation.TrainRequest) (federation.TrainResponse, error) {
	return federation.TrainResponse{}, errOutage
}

func (f faults) nodes(t *testing.T) []*federation.Node {
	var nodes []*federation.Node
	for _, n := range buildNodes(t) {
		if n.ID() != f.without {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

func (f faults) wrap(id string, c federation.Client) federation.Client {
	if id == f.dead {
		return deadClient{c}
	}
	return c
}

func (f faults) leader(t *testing.T) *federation.Leader {
	t.Helper()
	var clients []federation.Client
	for _, n := range f.nodes(t) {
		clients = append(clients, f.wrap(n.ID(), federation.LocalClient{Node: n}))
	}
	cfg := fedConfig()
	cfg.TolerateFailures = f.tolerate
	lead, err := federation.NewLeader(cfg, nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	return lead
}

type pipelineRun func(t *testing.T, ctx context.Context, f faults, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, error)

var pipelineModes = []struct {
	name string
	run  pipelineRun
}{
	{"leader sequential", func(t *testing.T, ctx context.Context, f faults, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, error) {
		res, _, err := f.leader(t).Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: agg})
		return res, err
	}},
	{"leader concurrent round + assemble", func(t *testing.T, ctx context.Context, f faults, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, error) {
		lead := f.leader(t)
		pl, err := lead.PlanContext(ctx, q, sel)
		if err != nil {
			return nil, err
		}
		defer pl.Release()
		// The seed a leader (or root) configured like fedConfig draws
		// for its first query under a selector that draws nothing.
		cfg := fedConfig()
		seeded := cfg.Spec
		seeded.Seed = uint64(rng.New(cfg.Seed).Int63())
		model, err := seeded.New()
		if err != nil {
			return nil, err
		}
		res := &federation.Result{
			Query: q, Epoch: pl.Epoch, Selector: pl.Selector, Aggregation: agg,
			Participants: pl.CopyParticipants(),
		}
		outs := lead.Round(ctx, federation.RoundRequest{
			Spec: cfg.Spec, Params: model.Params(), Participants: res.Participants, Concurrent: true,
		})
		err = federation.Assemble(res, outs, federation.Assembly{
			Spec: cfg.Spec, Initial: model.Params(), TolerateFailures: f.tolerate,
		})
		return res, err
	}},
	{"2-region router", func(t *testing.T, ctx context.Context, f faults, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, error) {
		cfg := fedConfig()
		router, _ := shardNodes(t, f.nodes(t), f.wrap, 2, Config{
			Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed, TolerateFailures: f.tolerate,
		})
		res, _, err := router.ExecuteQuery(ctx, q, sel, agg)
		return res, err
	}},
}

// sameAggregate requires two results to carry the same survivors'
// models with the same weights and, hence, bit-identical predictions.
func sameAggregate(t *testing.T, label string, want, got *federation.Result) {
	t.Helper()
	sameParams(t, label, want.LocalParams, got.LocalParams)
	ww, gw := want.Ensemble.Weights(), got.Ensemble.Weights()
	if len(ww) != len(gw) {
		t.Fatalf("%s: %d vs %d ensemble weights", label, len(ww), len(gw))
	}
	for i := range ww {
		if ww[i] != gw[i] {
			t.Fatalf("%s: weight %d: %v vs %v", label, i, ww[i], gw[i])
		}
	}
	for _, x := range [][]float64{{-5}, {7.5}, {21}, {33.3}, {100}} {
		if w, g := want.Ensemble.Predict(x), got.Ensemble.Predict(x); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: prediction at %v: %v vs %v", label, x, w, g)
		}
	}
}

// trainedNodes lists the node ids of the successful rounds, in order.
func trainedNodes(res *federation.Result) []string {
	var ids []string
	for _, nr := range res.NodeRounds {
		if !nr.Failed() {
			ids = append(ids, nr.NodeID)
		}
	}
	return ids
}

// leftQuery is supported by node-0..node-2 only: the right-hand slabs
// are disjoint from it in both dimensions.
func leftQuery(t *testing.T) query.Query { return mustQuery(t, "q-left", 1, 33, 0, 70) }

// TestPipelineModesAgree: on a healthy LocalClient fleet the
// sequential and concurrent rounds — and the sharded fan-out — give
// bit-identical results.
func TestPipelineModesAgree(t *testing.T) {
	inputs := []struct {
		name string
		q    query.Query
		sel  selection.Selector
		agg  federation.Aggregation
	}{
		{"query-driven weighted", leftQuery(t), selection.QueryDriven{Epsilon: 0.3, TopL: 3}, federation.WeightedAveraging},
		{"query-driven psi", mustQuery(t, "q-wide", 5, 60, 0, 130), selection.QueryDriven{Epsilon: 1e-9, Psi: 0.4}, federation.WeightedAveraging},
		{"all-nodes averaging", leftQuery(t), selection.AllNodes{}, federation.ModelAveraging},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			var want *federation.Result
			for _, mode := range pipelineModes {
				got, err := mode.run(t, context.Background(), faults{}, in.q, in.sel, in.agg)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if len(got.Participants) == 0 || len(got.Failed) != 0 || got.Stats.SamplesUsed == 0 || got.Stats.TrainTime <= 0 {
					t.Fatalf("%s: incomplete result: %d participants, failed %v, stats %+v", mode.name, len(got.Participants), got.Failed, got.Stats)
				}
				if want == nil {
					want = got
					continue
				}
				sameParticipants(t, mode.name, want.Participants, got.Participants)
				sameAggregate(t, mode.name, want, got)
				if want.Stats.SamplesUsed != got.Stats.SamplesUsed || want.Stats.SamplesSelectedNodes != got.Stats.SamplesSelectedNodes ||
					want.Stats.BytesUp != got.Stats.BytesUp || want.Stats.BytesDown != got.Stats.BytesDown {
					t.Fatalf("%s: stats %+v vs %+v", mode.name, want.Stats, got.Stats)
				}
				if w, g := strings.Join(trainedNodes(want), ","), strings.Join(trainedNodes(got), ","); w != g || len(got.NodeRounds) != len(got.Participants) {
					t.Fatalf("%s: node rounds %+v, want one healthy round per participant (%s)", mode.name, got.NodeRounds, w)
				}
			}
		})
	}
}

// TestPipelineToleratedFailureEqualsSurvivors pins the invariant "a
// tolerated-failure aggregate equals the aggregate over the
// survivors": killing one of three participants yields, in every mode,
// exactly the models, weights and round attribution of a run planned
// on a fleet that never had that node — plus the failure on record.
func TestPipelineToleratedFailureEqualsSurvivors(t *testing.T) {
	q, sel := leftQuery(t), selection.QueryDriven{Epsilon: 0.3, TopL: 3}
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			got, err := mode.run(t, ctx, faults{dead: "node-1", tolerate: true}, q, sel, federation.WeightedAveraging)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mode.run(t, ctx, faults{without: "node-1"}, q, sel, federation.WeightedAveraging)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Participants) != 3 || len(want.Participants) != 2 {
				t.Fatalf("participants %d with the dead node, %d without; want 3 and 2", len(got.Participants), len(want.Participants))
			}
			sameAggregate(t, "survivors", want, got)
			if len(got.Failed) != 1 || got.Failed[0] != "node-1" {
				t.Fatalf("failed list %v, want [node-1]", got.Failed)
			}
			if w, g := strings.Join(trainedNodes(want), ","), strings.Join(trainedNodes(got), ","); w != g {
				t.Fatalf("healthy rounds on %s, survivors-only run trained %s", g, w)
			}
			// The skipped round stays visible with its reason.
			if len(got.NodeRounds) != 3 {
				t.Fatalf("node rounds %+v, want 3 (failed rounds must be recorded)", got.NodeRounds)
			}
			for i, nr := range got.NodeRounds {
				if nr.NodeID != got.Participants[i].NodeID || nr.Elapsed < 0 {
					t.Fatalf("round %d: %+v for participant %s", i, nr, got.Participants[i].NodeID)
				}
				if nr.NodeID == "node-1" && !strings.Contains(nr.Err, errOutage.Error()) {
					t.Fatalf("node-1 round = %+v, want %v", nr, errOutage)
				}
			}
			if got.Stats.SamplesUsed != want.Stats.SamplesUsed || got.Stats.BytesUp != want.Stats.BytesUp {
				t.Fatalf("stats %+v count the failed round; survivors-only %+v", got.Stats, want.Stats)
			}
		})
	}
}

// clusterSelector selects node-0 with an explicit cluster directive.
type clusterSelector struct {
	selection.AllNodes
	clusters []int
}

func (s clusterSelector) SelectFrom(*selection.CandidateSet, *selection.Context) ([]selection.Participant, error) {
	return []selection.Participant{{NodeID: "node-0", Rank: 1, Clusters: s.clusters}}, nil
}

// TestPipelineFailureContract: every mode reports the same failures
// the same way.
func TestPipelineFailureContract(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	var topL3 selection.Selector = selection.QueryDriven{Epsilon: 0.3, TopL: 3}
	inputs := []struct {
		name   string
		ctx    context.Context
		f      faults
		sel    selection.Selector
		wantIs error  // errors.Is target, when the cause stays in-process
		want   string // substring of the error
	}{
		{"failure aborts by default and names the node", context.Background(), faults{dead: "node-1"}, topL3,
			nil, "federation: training on node-1: " + errOutage.Error()},
		{"tolerance needs a survivor", context.Background(), faults{dead: "node-0", tolerate: true}, clusterSelector{},
			nil, "federation: every selected participant failed for q-left"},
		{"node-side training error surfaces", context.Background(), faults{}, clusterSelector{clusters: []int{99}},
			nil, "federation: training on node-0: "},
		{"expired context", expired, faults{}, topL3,
			context.DeadlineExceeded, ""},
	}
	for _, in := range inputs {
		for _, mode := range pipelineModes {
			t.Run(in.name+"/"+mode.name, func(t *testing.T) {
				start := time.Now()
				res, err := mode.run(t, in.ctx, in.f, leftQuery(t), in.sel, federation.ModelAveraging)
				if err == nil {
					t.Fatalf("no error; result has %d local models", len(res.LocalParams))
				}
				if in.wantIs != nil && !errors.Is(err, in.wantIs) {
					t.Fatalf("err = %v, want %v", err, in.wantIs)
				}
				if !strings.Contains(err.Error(), in.want) {
					t.Fatalf("err = %q, want it to contain %q", err, in.want)
				}
				if time.Since(start) > 5*time.Second {
					t.Fatal("failure did not surface promptly")
				}
			})
		}
	}
}
