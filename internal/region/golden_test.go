package region

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// goldenWorkload generates a seeded 200-query workload over (and
// slightly beyond) the fleet's x extent, so it exercises single-region
// routes, cross-region routes, spanning rectangles and zero-overlap
// misses.
func goldenWorkload(n int) []query.Query {
	src := rng.New(777)
	out := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		lo := src.Uniform(-20, 90)
		w := src.Uniform(2, 60)
		// The y window tracks the data's y = 2x+1 band, so queries
		// fully beyond the fleet's x extent are disjoint in BOTH
		// dimensions (Eq. 2 support 0 → true no-candidate misses) and
		// left-band queries genuinely prune right-hand regions.
		q, err := query.New(fmt.Sprintf("golden-%d", i),
			geometry.MustRect([]float64{lo, 2*lo - 10}, []float64{lo + w, 2*(lo+w) + 10}))
		if err != nil {
			panic(err)
		}
		out = append(out, q)
	}
	return out
}

func sameParticipants(t *testing.T, q string, a, b []selection.Participant) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d participants", q, len(a), len(b))
	}
	for i := range a {
		if a[i].NodeID != b[i].NodeID || a[i].Rank != b[i].Rank {
			t.Fatalf("%s participant %d: %+v vs %+v", q, i, a[i], b[i])
		}
		if len(a[i].Clusters) != len(b[i].Clusters) {
			t.Fatalf("%s participant %d clusters: %v vs %v", q, i, a[i].Clusters, b[i].Clusters)
		}
		for j := range a[i].Clusters {
			if a[i].Clusters[j] != b[i].Clusters[j] {
				t.Fatalf("%s participant %d clusters: %v vs %v", q, i, a[i].Clusters, b[i].Clusters)
			}
		}
	}
}

func sameParams(t *testing.T, q string, a, b []ml.Params) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d local params", q, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Values) != len(b[i].Values) {
			t.Fatalf("%s params %d: %d vs %d values", q, i, len(a[i].Values), len(b[i].Values))
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("%s params %d value %d: %v vs %v (not bit-exact)",
					q, i, j, a[i].Values[j], b[i].Values[j])
			}
		}
	}
}

// TestGoldenShardedMatchesSingleLeader replays a 200-query seeded
// workload against a 2-region sharded topology and a single leader
// over the same fleet, per served selector, and requires bit-exact
// participants, local model parameters and aggregated-model
// predictions. Both sides are rebuilt per selector so their seed
// streams stay in lock-step across the whole replay.
func TestGoldenShardedMatchesSingleLeader(t *testing.T) {
	queries := goldenWorkload(200)
	probes := [][]float64{{-5}, {0}, {7.5}, {21}, {33.3}, {47}, {61.2}, {74}, {100}}

	selectors := []struct {
		name string
		sel  selection.Selector
		agg  federation.Aggregation
	}{
		{"query-driven-topl", selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, federation.WeightedAveraging},
		{"query-driven-psi", selection.QueryDriven{Epsilon: 1e-9, Psi: 0.4}, federation.WeightedAveraging},
		{"all-nodes", selection.AllNodes{}, federation.ModelAveraging},
	}

	for _, tc := range selectors {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			single := singleFixture(t)
			router, _, _ := shardedFixture(t, 2, Config{})
			ctx := context.Background()
			executed, misses := 0, 0
			for _, q := range queries {
				want, _, wantErr := single.Execute(ctx, federation.Request{Query: q, Selector: tc.sel, Aggregation: tc.agg})
				got, kind, gotErr := router.Execute(ctx, federation.Request{Query: q, Selector: tc.sel, Aggregation: tc.agg})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: single-leader err %v vs sharded err %v", q.ID, wantErr, gotErr)
				}
				if wantErr != nil {
					if !errors.Is(wantErr, selection.ErrNoCandidates) || !errors.Is(gotErr, selection.ErrNoCandidates) {
						t.Fatalf("%s: errs %v / %v, want ErrNoCandidates on both", q.ID, wantErr, gotErr)
					}
					misses++
					continue
				}
				if kind.Reused() {
					t.Fatalf("%s: unexpected reuse with cache disabled", q.ID)
				}
				executed++
				sameParticipants(t, q.ID, want.Participants, got.Participants)
				sameParams(t, q.ID, want.LocalParams, got.LocalParams)
				if want.Stats.SamplesUsed != got.Stats.SamplesUsed ||
					want.Stats.SamplesSelectedNodes != got.Stats.SamplesSelectedNodes ||
					want.Stats.SamplesAllNodes != got.Stats.SamplesAllNodes {
					t.Fatalf("%s: stats %+v vs %+v", q.ID, want.Stats, got.Stats)
				}
				for _, p := range probes {
					a := want.Ensemble.Predict(p)
					b := got.Ensemble.Predict(p)
					if a != b {
						t.Fatalf("%s: ensemble(%v) = %v vs %v (not bit-exact)", q.ID, p, a, b)
					}
				}
			}
			if executed == 0 {
				t.Fatal("workload produced no executable queries")
			}
			// The workload deliberately includes off-space rectangles;
			// only the query-driven policy can miss.
			if _, qd := tc.sel.(selection.QueryDriven); qd && misses == 0 {
				t.Fatal("workload produced no zero-candidate queries")
			}
			t.Logf("%s: %d executed, %d no-candidate misses", tc.name, executed, misses)
		})
	}
}

// bruteService forces the fan-out back onto the brute kernel by
// clearing the QueryDriven hint before the RPC reaches the regional
// leader, exactly what an old root coordinator would send.
type bruteService struct{ Service }

func (b bruteService) Plan(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	req.QueryDriven = false
	return b.Service.Plan(ctx, req)
}

// TestGoldenRouterIndexedMatchesBrute replays the golden workload
// through two identical 2-region topologies — one whose fan-out takes
// the R-tree-pruned shard rankings, one forced onto the brute kernel —
// and requires bit-exact participants, local parameters and ensemble
// predictions. This pins the acceptance contract that index pruning is
// invisible to the router's merge.
func TestGoldenRouterIndexedMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  selection.Selector
	}{
		{"topl", selection.QueryDriven{Epsilon: 1e-9, TopL: 2}},
		{"psi", selection.QueryDriven{Epsilon: 1e-9, Psi: 0.4}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			indexed, idxLeaders, _ := shardedFixture(t, 2, Config{})
			_, bruteLeaders, _ := shardedFixture(t, 2, Config{})
			services := make([]Service, len(bruteLeaders))
			for i, l := range bruteLeaders {
				services[i] = bruteService{l}
			}
			cfg := fedConfig()
			brute, err := NewRouter(Config{Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed}, services)
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			executed := 0
			for _, q := range goldenWorkload(200) {
				want, _, wantErr := brute.Execute(ctx, federation.Request{Query: q, Selector: tc.sel, Aggregation: federation.WeightedAveraging})
				got, _, gotErr := indexed.Execute(ctx, federation.Request{Query: q, Selector: tc.sel, Aggregation: federation.WeightedAveraging})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: brute err %v vs indexed err %v", q.ID, wantErr, gotErr)
				}
				if wantErr != nil {
					if !errors.Is(wantErr, selection.ErrNoCandidates) || !errors.Is(gotErr, selection.ErrNoCandidates) {
						t.Fatalf("%s: errs %v / %v", q.ID, wantErr, gotErr)
					}
					continue
				}
				executed++
				sameParticipants(t, q.ID, want.Participants, got.Participants)
				sameParams(t, q.ID, want.LocalParams, got.LocalParams)
				for _, p := range [][]float64{{-5}, {12}, {40.5}, {88}} {
					if a, b := want.Ensemble.Predict(p), got.Ensemble.Predict(p); a != b {
						t.Fatalf("%s: ensemble(%v) %v vs %v", q.ID, p, a, b)
					}
				}
			}
			if executed == 0 {
				t.Fatal("workload produced no executable queries")
			}

			var idxPlans, brutePlans, forcedIdx int64
			for _, l := range idxLeaders {
				st := l.fed.Registry().Stats()
				idxPlans += st.IndexedPlans
				brutePlans += st.BrutePlans
			}
			for _, l := range bruteLeaders {
				forcedIdx += l.fed.Registry().Stats().IndexedPlans
			}
			if idxPlans == 0 {
				t.Fatal("indexed topology never took the R-tree fast path")
			}
			if brutePlans != 0 {
				t.Fatalf("indexed topology fell back to brute %d times", brutePlans)
			}
			if forcedIdx != 0 {
				t.Fatalf("forced-brute topology walked the index %d times", forcedIdx)
			}
		})
	}
}

// TestGoldenRankingsMatchSingleLeader compares the full EXPLAIN-style
// rankings: the root's cross-region merged rows must be bit-identical,
// row for row, to the single leader's planner output over the same
// fleet.
func TestGoldenRankingsMatchSingleLeader(t *testing.T) {
	single := singleFixture(t)
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}
	compared := 0
	for _, q := range goldenWorkload(60) {
		pl, errA := single.ExplainContext(ctx, q, sel)
		ex, errB := router.ExplainQuery(ctx, q, sel)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: plan err %v vs explain err %v", q.ID, errA, errB)
		}
		if errA != nil {
			if !errors.Is(errA, selection.ErrNoCandidates) || !errors.Is(errB, selection.ErrNoCandidates) {
				t.Fatalf("%s: errs %v / %v", q.ID, errA, errB)
			}
			continue
		}
		compared++
		if len(pl.Rankings) != len(ex.Rankings) {
			t.Fatalf("%s: %d vs %d ranking rows", q.ID, len(pl.Rankings), len(ex.Rankings))
		}
		for i := range pl.Rankings {
			a, b := pl.Rankings[i], ex.Rankings[i]
			if a.NodeID != b.NodeID || a.Rank != b.Rank || a.Potential != b.Potential ||
				len(a.Supporting) != len(b.Supporting) || len(a.Overlaps) != len(b.Overlaps) {
				t.Fatalf("%s row %d: %+v vs %+v", q.ID, i, a, b)
			}
			for j := range a.Overlaps {
				if a.Overlaps[j] != b.Overlaps[j] {
					t.Fatalf("%s row %d overlap %d: %v vs %v", q.ID, i, j, a.Overlaps[j], b.Overlaps[j])
				}
			}
		}
		sameParticipants(t, q.ID, pl.Participants, ex.Participants)
	}
	if compared == 0 {
		t.Fatal("no rankings compared")
	}
}
