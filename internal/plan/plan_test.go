package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"qens/internal/cluster"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/rng"
	"qens/internal/selection"
)

// synthSummaries builds a deterministic fleet advertisement: n nodes,
// k clusters each, d dims, cluster rectangles scattered over
// [0,100]^d. Roughly a third of the clusters are degenerate in one
// dimension (point intervals), exercising the kernel's edge cases.
func synthSummaries(n, k, d int, seed uint64) []cluster.NodeSummary {
	src := rng.New(seed)
	out := make([]cluster.NodeSummary, 0, n)
	for i := 0; i < n; i++ {
		s := cluster.NodeSummary{NodeID: fmt.Sprintf("node-%02d", i), Epoch: 1}
		total := 0
		for c := 0; c < k; c++ {
			min := make([]float64, d)
			max := make([]float64, d)
			for j := 0; j < d; j++ {
				lo := src.Uniform(0, 90)
				hi := lo + src.Uniform(0, 25)
				if (i+c+j)%3 == 0 {
					hi = lo // degenerate interval
				}
				min[j], max[j] = lo, hi
			}
			size := 10 + src.Intn(200)
			total += size
			s.Clusters = append(s.Clusters, cluster.Summary{
				Bounds: geometry.MustRect(min, max), Size: size,
			})
		}
		s.TotalSamples = total + src.Intn(50)
		out = append(out, s)
	}
	return out
}

// staticRegistry serves a fixed advertisement.
func staticRegistry(t testing.TB, summaries []cluster.NodeSummary) *registry.Registry {
	t.Helper()
	reg, err := registry.New(func(context.Context, []registry.NodeEpoch) ([]registry.Delta, error) {
		out := make([]registry.Delta, len(summaries))
		for i, s := range summaries {
			out[i] = registry.Delta{NodeID: s.NodeID, Summary: s}
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// randomQuery draws a query rectangle inside [0,100]^d.
func randomQuery(id string, d int, src *rng.Source) query.Query {
	min := make([]float64, d)
	max := make([]float64, d)
	for j := 0; j < d; j++ {
		lo := src.Uniform(0, 80)
		min[j], max[j] = lo, lo+src.Uniform(1, 40)
	}
	q, err := query.New(id, geometry.MustRect(min, max))
	if err != nil {
		panic(err)
	}
	return q
}

// sameParticipants requires bit-exact agreement: same nodes in the
// same order, identical ranks, identical cluster directives.
func sameParticipants(a, b []selection.Participant) error {
	if len(a) != len(b) {
		return fmt.Errorf("len %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].NodeID != b[i].NodeID {
			return fmt.Errorf("participant %d: node %s != %s", i, a[i].NodeID, b[i].NodeID)
		}
		if a[i].Rank != b[i].Rank {
			return fmt.Errorf("participant %d (%s): rank %v != %v", i, a[i].NodeID, a[i].Rank, b[i].Rank)
		}
		if (a[i].Clusters == nil) != (b[i].Clusters == nil) || len(a[i].Clusters) != len(b[i].Clusters) {
			return fmt.Errorf("participant %d (%s): clusters %v != %v", i, a[i].NodeID, a[i].Clusters, b[i].Clusters)
		}
		for j := range a[i].Clusters {
			if a[i].Clusters[j] != b[i].Clusters[j] {
				return fmt.Errorf("participant %d (%s): clusters %v != %v", i, a[i].NodeID, a[i].Clusters, b[i].Clusters)
			}
		}
	}
	return nil
}

// evalStub is a deterministic stand-in for the game-theory pre-test.
func evalStub(nodeID string) (float64, error) {
	h := 0.0
	for _, r := range nodeID {
		h = math.Mod(h*31+float64(r), 977)
	}
	return h, nil
}

// reference selects through the reference pipeline: RankNodes over the
// raw summaries (via NewCandidateSet) at the ε the planner resolves,
// then the selector's own SelectFrom.
func reference(q query.Query, summaries []cluster.NodeSummary, sel selection.Selector, sctx *selection.Context) ([]selection.Participant, error) {
	cs, err := selection.NewCandidateSet(q, summaries, EpsilonFor(sel))
	if err != nil {
		return nil, err
	}
	return sel.SelectFrom(cs, sctx)
}

// TestPlannerGoldenEquivalence replays a seeded 200-query workload
// through both pipelines — the reference RankNodes candidate set over
// raw summaries vs. Planner.PlanOn's arena kernel over a registry
// snapshot — for every stateless mechanism (plus Random with mirrored
// RNG streams) and requires bit-exact participant agreement.
func TestPlannerGoldenEquivalence(t *testing.T) {
	summaries := synthSummaries(12, 5, 3, 42)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	planner := NewPlanner(reg)

	type selCase struct {
		name string
		sel  selection.Selector
		ref  func() *selection.Context
		plan func() *selection.Context
	}
	none := func() *selection.Context { return nil }
	cases := []selCase{
		{"query-driven-topl", selection.QueryDriven{Epsilon: 0.6, TopL: 3}, none, none},
		{"query-driven-topl-tight", selection.QueryDriven{Epsilon: 0.9, TopL: 2}, none, none},
		{"query-driven-psi", selection.QueryDriven{Epsilon: 0.3, Psi: 0.4}, none, none},
		{"all-nodes", selection.AllNodes{}, none, none},
		{
			"game-theory", selection.GameTheory{L: 3},
			func() *selection.Context { return &selection.Context{Evaluate: evalStub} },
			func() *selection.Context { return &selection.Context{Evaluate: evalStub} },
		},
	}
	// Random: two mirrored RNG streams, one per pipeline, seeded
	// identically so the draws stay in lock-step across 200 queries.
	refRNG, planRNG := rng.New(7), rng.New(7)
	cases = append(cases, selCase{
		"random", selection.Random{L: 3},
		func() *selection.Context { return &selection.Context{RNG: refRNG} },
		func() *selection.Context { return &selection.Context{RNG: planRNG} },
	})

	qsrc := rng.New(2024)
	queries := make([]query.Query, 200)
	for i := range queries {
		queries[i] = randomQuery(fmt.Sprintf("q-%03d", i), 3, qsrc)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mismatches, compared := 0, 0
			for _, q := range queries {
				want, wantErr := reference(q, summaries, tc.sel, tc.ref())
				pl, gotErr := planner.PlanOn(snap, q, tc.sel, tc.plan())
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("query %s: reference err %v, planner err %v", q.ID, wantErr, gotErr)
				}
				if wantErr != nil {
					if errors.Is(wantErr, selection.ErrNoCandidates) != errors.Is(gotErr, selection.ErrNoCandidates) {
						t.Fatalf("query %s: error class diverged: reference %v, planner %v", q.ID, wantErr, gotErr)
					}
					continue
				}
				compared++
				if err := sameParticipants(want, pl.Participants); err != nil {
					t.Errorf("query %s: %v", q.ID, err)
					if mismatches++; mismatches > 3 {
						t.Fatal("too many mismatches")
					}
				}
				pl.Release()
			}
			if compared == 0 {
				t.Fatal("every query failed to select; nothing was compared")
			}
		})
	}
}

// TestPlannerIndexedMatchesBruteGolden replays a 200-query golden
// workload and requires the R-tree fast path (PlanOn over an indexed
// snapshot) to agree bit-exactly with the brute kernel (ExplainOn)
// for every stateless selector: identical participant sets, and for
// the query-driven rankings identical positive rows, with pruned rows
// surfacing only as explicit zeros.
func TestPlannerIndexedMatchesBruteGolden(t *testing.T) {
	summaries := synthSummaries(40, 4, 3, 314)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index == nil {
		t.Fatal("snapshot carries no spatial index")
	}
	planner := NewPlanner(reg)

	selectors := []selection.Selector{
		selection.QueryDriven{Epsilon: 0.6, TopL: 3},
		selection.QueryDriven{Epsilon: 0.9, TopL: 2},
		selection.QueryDriven{Epsilon: 0.3, Psi: 0.4},
		selection.AllNodes{},
	}

	qsrc := rng.New(2718)
	queries := make([]query.Query, 200)
	for i := range queries {
		queries[i] = randomQuery(fmt.Sprintf("ib-%03d", i), 3, qsrc)
	}

	before := reg.Stats()
	for _, sel := range selectors {
		t.Run(sel.Name(), func(t *testing.T) {
			for _, q := range queries {
				brute, bruteErr := planner.ExplainOn(snap, q, sel, nil)
				fast, fastErr := planner.PlanOn(snap, q, sel, nil)
				if (bruteErr == nil) != (fastErr == nil) {
					t.Fatalf("query %s: brute err %v, indexed err %v", q.ID, bruteErr, fastErr)
				}
				if bruteErr != nil {
					if errors.Is(bruteErr, selection.ErrNoCandidates) != errors.Is(fastErr, selection.ErrNoCandidates) {
						t.Fatalf("query %s: error class diverged: %v vs %v", q.ID, bruteErr, fastErr)
					}
					continue
				}
				if err := sameParticipants(brute.Participants, fast.Participants); err != nil {
					t.Fatalf("query %s: %v", q.ID, err)
				}
				fast.Release()
				brute.Release()
			}
		})
	}

	// The query-driven ranking surface: positive rows bit-exact, pruned
	// rows explicit zeros with no overlap detail.
	pruned := 0
	for _, q := range queries {
		want, wantEpoch, err := planner.RankOn(snap, q, 0.6, false)
		if err != nil {
			t.Fatal(err)
		}
		got, gotEpoch, err := planner.RankOn(snap, q, 0.6, true)
		if err != nil {
			t.Fatal(err)
		}
		if wantEpoch != gotEpoch || len(want) != len(got) {
			t.Fatalf("query %s: shape %d@e%d vs %d@e%d", q.ID, len(want), wantEpoch, len(got), gotEpoch)
		}
		for i := range want {
			w, g := want[i], got[i]
			if w.NodeID != g.NodeID || w.TotalSamples != g.TotalSamples {
				t.Fatalf("query %s row %d: identity %s/%d vs %s/%d", q.ID, i, w.NodeID, w.TotalSamples, g.NodeID, g.TotalSamples)
			}
			if g.Overlaps == nil { // pruned row
				pruned++
				if w.Rank > 0 || g.Rank != 0 || g.Potential != 0 || g.Supporting != nil {
					t.Fatalf("query %s row %d: pruned node %s vs brute %+v", q.ID, i, g.NodeID, w)
				}
				continue
			}
			if w.Rank != g.Rank || w.Potential != g.Potential || w.SupportingSamples != g.SupportingSamples {
				t.Fatalf("query %s row %d (%s): %+v vs %+v", q.ID, i, w.NodeID, w, g)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("workload exercised no pruning; tighten eps or spread the fleet")
	}

	after := reg.Stats()
	if after.IndexedPlans <= before.IndexedPlans {
		t.Fatalf("IndexedPlans did not advance: %d -> %d", before.IndexedPlans, after.IndexedPlans)
	}
	if after.BrutePlans <= before.BrutePlans {
		t.Fatalf("BrutePlans (EXPLAIN surface) did not advance: %d -> %d", before.BrutePlans, after.BrutePlans)
	}
	if after.NodesPruned <= before.NodesPruned {
		t.Fatalf("NodesPruned did not advance: %d -> %d", before.NodesPruned, after.NodesPruned)
	}
	if after.NodesRanked-before.NodesRanked <= after.NodesPruned-before.NodesPruned {
		t.Fatalf("ranked %d <= pruned %d over the workload", after.NodesRanked-before.NodesRanked, after.NodesPruned-before.NodesPruned)
	}
}

// TestPlannerRankingsMatchRankNodes checks the EXPLAIN surface too:
// the arena-backed per-node ranking must be bit-identical to
// selection.RankNodes (overlaps, supporting sets, potential, rank,
// sample accounting) across a seeded workload.
func TestPlannerRankingsMatchRankNodes(t *testing.T) {
	summaries := synthSummaries(8, 4, 2, 11)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	planner := NewPlanner(reg)

	qsrc := rng.New(5)
	for i := 0; i < 50; i++ {
		q := randomQuery(fmt.Sprintf("rq-%02d", i), 2, qsrc)
		eps := []float64{1e-9, 0.3, 0.6, 0.95}[i%4]
		want, err := selection.RankNodes(q, summaries, eps)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := planner.rank(snap, q, eps, "test")
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(pl.Rankings) {
			t.Fatalf("query %d: %d ranks != %d", i, len(want), len(pl.Rankings))
		}
		for j := range want {
			w, g := want[j], pl.Rankings[j]
			if w.NodeID != g.NodeID || w.Potential != g.Potential || w.Rank != g.Rank ||
				w.SupportingSamples != g.SupportingSamples || w.TotalSamples != g.TotalSamples {
				t.Fatalf("query %d node %s: legacy %+v != planner %+v", i, w.NodeID, w, g)
			}
			if len(w.Overlaps) != len(g.Overlaps) {
				t.Fatalf("query %d node %s: overlap count", i, w.NodeID)
			}
			for k := range w.Overlaps {
				if w.Overlaps[k] != g.Overlaps[k] {
					t.Fatalf("query %d node %s cluster %d: h %v != %v", i, w.NodeID, k, w.Overlaps[k], g.Overlaps[k])
				}
			}
			if (w.Supporting == nil) != (g.Supporting == nil) || len(w.Supporting) != len(g.Supporting) {
				t.Fatalf("query %d node %s: supporting %v != %v", i, w.NodeID, w.Supporting, g.Supporting)
			}
			for k := range w.Supporting {
				if w.Supporting[k] != g.Supporting[k] {
					t.Fatalf("query %d node %s: supporting %v != %v", i, w.NodeID, w.Supporting, g.Supporting)
				}
			}
		}
		pl.Release()
	}
}

// TestPlanZeroAlloc: the query-driven fast path must not allocate at
// steady state (pooled plan, pre-grown arenas, in-place sort).
func TestPlanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation accounting is not meaningful")
	}
	summaries := synthSummaries(100, 5, 4, 99)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	planner := NewPlanner(reg)
	q := randomQuery("alloc", 4, rng.New(3))
	// Box the selector into the interface once, outside the measured
	// loop — per-call boxing of the multi-word struct would count as
	// one allocation per plan and hide real regressions.
	var sel selection.Selector = selection.QueryDriven{Epsilon: 0.1, TopL: 5}

	// Warm the pool (first plan allocates the arenas), then freeze the
	// GC so the pool cannot be drained mid-measurement.
	pl, err := planner.PlanOn(snap, q, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl.Release()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	allocs := testing.AllocsPerRun(200, func() {
		pl, err := planner.PlanOn(snap, q, sel, nil)
		if err != nil {
			panic(err)
		}
		pl.Release()
	})
	if allocs != 0 {
		t.Fatalf("query-driven plan allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPlanEpochAndKey: plans carry the registry epoch, keys change
// when the epoch moves, and CopyParticipants survives Release.
func TestPlanEpochAndKey(t *testing.T) {
	summaries := synthSummaries(6, 4, 2, 17)
	reg := staticRegistry(t, summaries)
	planner := NewPlanner(reg)
	q := randomQuery("epoch", 2, rng.New(21))
	sel := selection.QueryDriven{Epsilon: 0.1, TopL: 3}
	plan := func() (*Plan, error) {
		snap, err := reg.Snapshot(context.Background())
		if err != nil {
			return nil, err
		}
		return planner.PlanOn(snap, q, sel, nil)
	}

	pl1, err := plan()
	if err != nil {
		t.Fatal(err)
	}
	if pl1.Epoch != reg.Epoch() || pl1.Epoch == 0 {
		t.Fatalf("plan epoch %d, registry %d", pl1.Epoch, reg.Epoch())
	}
	key1 := pl1.Key()
	if !strings.HasPrefix(key1, fmt.Sprintf("e%d|query-driven|", pl1.Epoch)) {
		t.Fatalf("key %q lacks epoch/selector prefix", key1)
	}
	parts := pl1.CopyParticipants()
	orig := pl1.Participants
	if err := sameParticipants(parts, orig); err != nil {
		t.Fatalf("copy diverged before release: %v", err)
	}
	pl1.Release()
	if len(parts) == 0 || parts[0].NodeID == "" {
		t.Fatal("copied participants did not survive release")
	}

	reg.Invalidate()
	pl2, err := plan()
	if err != nil {
		t.Fatal(err)
	}
	defer pl2.Release()
	if pl2.Epoch <= pl1.Epoch && pl2.Epoch != reg.Epoch() {
		t.Fatalf("epoch did not advance: %d then %d", pl1.Epoch, pl2.Epoch)
	}
	if key2 := pl2.Key(); key2 == key1 {
		t.Fatalf("key unchanged across epochs: %q", key2)
	}
}

// TestPlanErrors pins the planner's error contract to the legacy
// shapes callers match on.
func TestPlanErrors(t *testing.T) {
	summaries := synthSummaries(4, 3, 2, 5)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	planner := NewPlanner(reg)
	q := randomQuery("err", 2, rng.New(8))

	if _, err := planner.PlanOn(nil, q, selection.AllNodes{}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := planner.PlanOn(snap, q, selection.QueryDriven{Epsilon: 0.5}, nil); err == nil ||
		!strings.Contains(err.Error(), "exactly one of TopL") {
		t.Fatalf("TopL/Psi validation: %v", err)
	}
	if _, err := planner.PlanOn(snap, q, selection.QueryDriven{TopL: 2}, nil); err == nil ||
		!strings.Contains(err.Error(), "must be > 0") {
		t.Fatalf("epsilon validation: %v", err)
	}
	far, _ := query.New("far", geometry.MustRect([]float64{1000, 1000}, []float64{1001, 1001}))
	if _, err := planner.PlanOn(snap, far, selection.QueryDriven{Epsilon: 0.5, TopL: 2}, nil); !errors.Is(err, selection.ErrNoCandidates) {
		t.Fatalf("unsupported query: %v, want ErrNoCandidates", err)
	}
	q3, _ := query.New("3d", geometry.MustRect([]float64{0, 0, 0}, []float64{1, 1, 1}))
	if _, err := planner.PlanOn(snap, q3, selection.QueryDriven{Epsilon: 0.5, TopL: 2}, nil); err == nil ||
		!strings.Contains(err.Error(), "dims") {
		t.Fatalf("dims mismatch: %v", err)
	}
}
