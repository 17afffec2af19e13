package region

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
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
		res, _, err := router.Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: agg})
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

// trainedNodes lists the participants whose round succeeded, in
// participant order.
func trainedNodes(res *federation.Result) []string {
	failed := map[string]bool{}
	for _, id := range res.Failed {
		failed[id] = true
	}
	var ids []string
	for _, p := range res.Participants {
		if !failed[p.NodeID] {
			ids = append(ids, p.NodeID)
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
			if got.Stats.SamplesUsed != want.Stats.SamplesUsed || got.Stats.BytesUp != want.Stats.BytesUp {
				t.Fatalf("stats %+v count the failed round; survivors-only %+v", got.Stats, want.Stats)
			}
		})
	}
}

// TestTrainSpansPerParticipant: a round is recorded once, and in both
// topologies a traced query's record of it is one "train" span per
// participant carrying its node, with the node's own phase spans under
// it. A tolerated failure's span carries the node's error, and
// Result.Failed names the node.
func TestTrainSpansPerParticipant(t *testing.T) {
	f := faults{dead: "node-1", tolerate: true}
	req := federation.Request{
		Query: leftQuery(t), Selector: selection.QueryDriven{Epsilon: 0.3, TopL: 3}, Aggregation: federation.WeightedAveraging,
	}
	topologies := []struct {
		name string
		run  func(*telemetry.Tracer) (*federation.Result, error)
	}{
		{"leader", func(tr *telemetry.Tracer) (*federation.Result, error) {
			lead := f.leader(t)
			lead.SetTracer(tr)
			res, _, err := lead.Execute(context.Background(), req)
			return res, err
		}},
		{"2-region router", func(tr *telemetry.Tracer) (*federation.Result, error) {
			cfg := fedConfig()
			router, _ := shardNodes(t, f.nodes(t), f.wrap, 2, Config{
				Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed, TolerateFailures: true,
			})
			router.SetTracer(tr)
			res, _, err := router.Execute(context.Background(), req)
			return res, err
		}},
	}
	for _, top := range topologies {
		t.Run(top.name, func(t *testing.T) {
			tr := telemetry.NewTracer(nil)
			res, err := top.run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Participants) != 3 || len(res.Failed) != 1 || res.Failed[0] != "node-1" {
				t.Fatalf("participants %v, failed %v; want 3 participants and [node-1]", res.Participants, res.Failed)
			}
			spans := tr.Spans()
			trains := map[string]telemetry.Span{} // node -> its train span
			for _, sp := range spans {
				if sp.Name != "train" {
					continue
				}
				node := sp.Attrs["node"]
				if _, dup := trains[node]; dup || node == "" {
					t.Fatalf("train span %+v: no node, or a second span for it", sp)
				}
				trains[node] = sp
			}
			if len(trains) != len(res.Participants) {
				t.Fatalf("%d train spans for %d participants", len(trains), len(res.Participants))
			}
			for _, p := range res.Participants {
				sp, ok := trains[p.NodeID]
				switch {
				case !ok:
					t.Fatalf("no train span for participant %s", p.NodeID)
				case sp.End.Before(sp.Start):
					t.Fatalf("train span %+v ends before it starts", sp)
				case p.NodeID == "node-1" && !strings.Contains(sp.Error, errOutage.Error()):
					t.Fatalf("failed node's train span %+v, want error %v", sp, errOutage)
				case p.NodeID != "node-1" && sp.Error != "":
					t.Fatalf("healthy node's train span %+v carries an error", sp)
				}
			}
			fits := 0
			for _, sp := range spans {
				if sp.Name != "node.fit" {
					continue
				}
				fits++
				if parent := trains[sp.Attrs["node"]]; sp.ParentID != parent.SpanID {
					t.Fatalf("node.fit %+v is not under its node's train span %s", sp, parent.SpanID)
				}
			}
			if fits != len(res.Participants)-len(res.Failed) {
				t.Fatalf("%d node.fit spans, want one per surviving participant", fits)
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

// servingModes are the two topologies that front the same fleet with
// federation.Serve: each build returns a fresh Execute over a fresh
// region_test fleet.
var servingModes = []struct {
	name  string
	build func(t *testing.T) func(context.Context, federation.Request) (*federation.Result, federation.ServeKind, error)
}{
	{"leader", func(t *testing.T) func(context.Context, federation.Request) (*federation.Result, federation.ServeKind, error) {
		return singleFixture(t).Execute
	}},
	{"2-region router", func(t *testing.T) func(context.Context, federation.Request) (*federation.Result, federation.ServeKind, error) {
		router, _, _ := shardedFixture(t, 2, Config{})
		return router.Execute
	}},
}

// replayWorkload is the reuse replays' 60-query sequence: three hot
// rectangles revisited with jitter, interleaved with cold scans.
func replayWorkload(t *testing.T) []query.Query {
	src := rng.New(99)
	hot := [][2]float64{{0, 22}, {12, 34}, {40, 62}}
	qs := make([]query.Query, 60)
	for i := range qs {
		var lo, hi float64
		if i%2 == 0 {
			h := hot[(i/2)%len(hot)]
			j := src.Uniform(-0.5, 0.5)
			lo, hi = h[0]+j, h[1]+j
		} else {
			lo = src.Uniform(0, 50)
			hi = lo + src.Uniform(10, 24)
		}
		qs[i] = mustQuery(t, fmt.Sprintf("r-%d", i), lo, hi, -500, 500)
	}
	return qs
}

// containedWorkload is 60 queries along the data's y = 2x+1 band: two
// anchors over the outer thirds of the fleet, then windows contained in
// an anchor, with two windows over the middle third recurring
// unchanged. Only one cached rectangle ever overlaps a given query, so
// which entry the approximate tier picks does not depend on how
// coverage is measured.
func containedWorkload(t *testing.T) []query.Query {
	src := rng.New(99)
	anchors := [][2]float64{{0, 22}, {52, 74}}
	middle := [][2]float64{{24, 34}, {40, 50}}
	qs := make([]query.Query, 60)
	for i := range qs {
		lo, hi := anchors[i%2][0], anchors[i%2][1]
		switch {
		case i < 2:
		case i%5 == 4:
			lo, hi = middle[(i/5)%2][0], middle[(i/5)%2][1]
		default:
			lo = src.Uniform(lo, lo+8)
			hi = lo + src.Uniform(6, 14)
		}
		qs[i] = mustQuery(t, fmt.Sprintf("c-%d", i), lo, hi, 2*lo, 2*hi+2)
	}
	return qs
}

// TestPipelineCachedReplay: the same query sequence through both
// topologies, each fronted by a reuse cache of the same configuration,
// is served by the same tier query for query and answers bit for bit
// the same — with the approximate tier off and on.
//
// The tier-on replay selects every supporting node and never probes.
// The leader measures coverage against the clusters it trained on, the
// root against the query rectangle standing in for them; the two agree
// on whether an answer is servable here, but once a probe has stored a
// second result overlapping the first they may rank the two
// differently, and then serve different (each valid) ensembles.
func TestPipelineCachedReplay(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload func(*testing.T) []query.Query
		sel      selection.Selector
		approx   federation.ApproxConfig
	}{
		{"approx off", replayWorkload, selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, federation.ApproxConfig{}},
		{"approx on", containedWorkload, selection.QueryDriven{Epsilon: 1e-9, TopL: len(slabs)},
			federation.ApproxConfig{MaxPredictedError: 0.5, MinCoverage: 0.25, ProbeEvery: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wantKinds []federation.ServeKind
			var wantAnswers []uint64
			for _, mode := range servingModes {
				execute := mode.build(t)
				cache, err := federation.NewAdaptiveCache(0.9, 4, tc.approx)
				if err != nil {
					t.Fatal(err)
				}
				var kinds []federation.ServeKind
				var answers []uint64
				seen := map[federation.ServeKind]int{}
				for _, q := range tc.workload(t) {
					res, kind, err := execute(context.Background(), federation.Request{
						Query: q, Selector: tc.sel, Aggregation: federation.ModelAveraging, Cache: cache,
					})
					if err != nil {
						t.Fatalf("%s %s: %v", mode.name, q.ID, err)
					}
					kinds = append(kinds, kind)
					seen[kind]++
					answers = append(answers, math.Float64bits(res.Ensemble.Predict(q.Bounds.Center()[:1])))
				}
				if seen[federation.ServeFresh] == 0 || seen[federation.ServeExact] == 0 || tc.approx.Enabled() != (seen[federation.ServeApprox] > 0) {
					t.Fatalf("%s: replay served %v — it does not exercise the tiers under test", mode.name, seen)
				}
				if wantKinds == nil {
					wantKinds, wantAnswers = kinds, answers
					continue
				}
				for i := range kinds {
					if kinds[i] != wantKinds[i] {
						t.Fatalf("query %d: %s served %v, %s served %v", i, servingModes[0].name, wantKinds[i], mode.name, kinds[i])
					}
					if answers[i] != wantAnswers[i] {
						t.Fatalf("query %d (%v): answers differ between %s and %s", i, kinds[i], servingModes[0].name, mode.name)
					}
				}
			}
		})
	}
}

// TestPipelineCacheParity: what the reuse tiers do that training does
// not, row by row, the same in both topologies.
func TestPipelineCacheParity(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	qd := selection.QueryDriven{Epsilon: 0.3, TopL: 3}
	for _, mode := range servingModes {
		t.Run(mode.name, func(t *testing.T) {
			execute := mode.build(t)
			cache, err := federation.NewReuseCache(0.9, 8)
			if err != nil {
				t.Fatal(err)
			}
			req := federation.Request{Query: leftQuery(t), Selector: qd, Aggregation: federation.WeightedAveraging, Cache: cache}
			warm, kind, err := execute(context.Background(), req)
			if err != nil || kind != federation.ServeFresh {
				t.Fatalf("warm-up: kind=%v err=%v", kind, err)
			}
			with := func(edit func(*federation.Request)) federation.Request {
				r := req
				edit(&r)
				return r
			}
			for _, row := range []struct {
				name    string
				ctx     context.Context
				req     federation.Request
				want    federation.ServeKind
				wantErr error
				stored  int // cache entries afterwards
			}{
				{"a hit costs nothing, so an expired context still gets it", expired, req,
					federation.ServeExact, nil, 1},
				{"a miss under an expired context trains nobody", expired, with(func(r *federation.Request) { r.Query = mustQuery(t, "q-right", 41, 60, 85, 130) }),
					federation.ServeFresh, context.DeadlineExceeded, 1},
				{"cache-only hit", context.Background(), with(func(r *federation.Request) { r.CacheOnly = true }),
					federation.ServeExact, nil, 1},
				{"cache-only miss is not trained", context.Background(), with(func(r *federation.Request) { r.CacheOnly = true; r.Aggregation = federation.ModelAveraging }),
					federation.ServeFresh, federation.ErrNotCached, 1},
				{"another aggregation trains and is stored apart", context.Background(), with(func(r *federation.Request) { r.Aggregation = federation.ModelAveraging }),
					federation.ServeFresh, nil, 2},
				{"another selector trains and is stored apart", context.Background(), with(func(r *federation.Request) { r.Selector = selection.AllNodes{} }),
					federation.ServeFresh, nil, 3},
				{"the original key still hits", context.Background(), req,
					federation.ServeExact, nil, 3},
			} {
				res, kind, err := execute(row.ctx, row.req)
				if !errors.Is(err, row.wantErr) || kind != row.want {
					t.Fatalf("%s: kind=%v err=%v, want %v / %v", row.name, kind, err, row.want, row.wantErr)
				}
				if (kind == federation.ServeExact) != (res == warm) {
					t.Fatalf("%s: served the wrong result", row.name)
				}
				if cache.Len() != row.stored {
					t.Fatalf("%s: cache holds %d entries, want %d", row.name, cache.Len(), row.stored)
				}
			}
		})
	}
}
