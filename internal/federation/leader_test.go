package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// testFleet builds a small heterogeneous fleet: three nodes on the
// same line over different x ranges plus one adversarial node with a
// flipped slope in a far-away range.
func testFleet(t *testing.T) *Fleet {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(400, 2, 1, 0, 30, 10),
		lineDataset(400, 2, 1, 20, 60, 11),
		lineDataset(400, 2, 1, 50, 90, 12),
		lineDataset(400, -2, 500, 200, 300, 13), // flipped, shifted
	}
	cfg := Config{Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 15, Seed: 1}
	fleet, err := NewSimulatedFleet(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// execute is the call most tests make: one uncached single-round
// query under a background context.
func execute(l *Leader, q query.Query, sel selection.Selector, agg Aggregation) (*Result, error) {
	res, _, err := l.Execute(context.Background(), Request{Query: q, Selector: sel, Aggregation: agg})
	return res, err
}

// executeCached is execute fronted by cache; reused reports that the
// answer cost no training.
func executeCached(l *Leader, cache *ReuseCache, q query.Query, sel selection.Selector, agg Aggregation) (res *Result, reused bool, err error) {
	res, kind, err := l.Execute(context.Background(), Request{Query: q, Selector: sel, Aggregation: agg, Cache: cache})
	return res, kind.Reused(), err
}

func midQuery(t *testing.T) query.Query {
	t.Helper()
	// A query over x in [10, 40]: supported by nodes 0-1, partially 2,
	// never 3.
	q, err := query.New("q-mid", geometry.MustRect([]float64{10, -50}, []float64{40, 150}))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewLeaderValidation(t *testing.T) {
	cfg := Config{Spec: ml.PaperLR(1)}
	if _, err := NewLeader(cfg, nil, nil); err == nil {
		t.Fatal("accepted no clients")
	}
	d := lineDataset(60, 1, 0, 0, 10, 1)
	n1, _ := NewNode("same", d, 3, rng.New(1))
	n2, _ := NewNode("same", d, 3, rng.New(2))
	if _, err := NewLeader(cfg, nil, []Client{LocalClient{n1}, LocalClient{n2}}); err == nil {
		t.Fatal("accepted duplicate ids")
	}
	bad := Config{Spec: ml.Spec{Kind: "nope", InputDim: 1}}
	if _, err := NewLeader(bad, nil, []Client{LocalClient{n1}}); err == nil {
		t.Fatal("accepted bad spec")
	}
}

func TestLeaderSummariesCached(t *testing.T) {
	fleet := testFleet(t)
	s1, err := fleet.Leader.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 4 {
		t.Fatalf("%d summaries", len(s1))
	}
	s2, _ := fleet.Leader.Summaries()
	if &s1[0] != &s2[0] {
		t.Fatal("summaries not cached")
	}
	fleet.Leader.InvalidateSummaries()
	s3, _ := fleet.Leader.Summaries()
	if len(s3) != 4 {
		t.Fatal("invalidate broke summaries")
	}
}

func TestExecuteQueryDriven(t *testing.T) {
	fleet := testFleet(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res, err := fleet.Execute(midQuery(t), sel, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selector != "query-driven" || res.Aggregation != WeightedAveraging {
		t.Fatalf("labels %s/%v", res.Selector, res.Aggregation)
	}
	if len(res.Participants) == 0 || len(res.Participants) > 2 {
		t.Fatalf("%d participants", len(res.Participants))
	}
	for _, p := range res.Participants {
		if p.NodeID == "node-3" {
			t.Fatal("selected the adversarial node")
		}
	}
	if res.Ensemble == nil || res.Ensemble.Size() != len(res.Participants) {
		t.Fatal("ensemble missing or wrong size")
	}
	// Data selectivity: query-driven must use fewer samples than the
	// selected nodes hold.
	if res.Stats.SamplesUsed >= res.Stats.SamplesSelectedNodes {
		t.Fatalf("selectivity failed: used %d of %d", res.Stats.SamplesUsed, res.Stats.SamplesSelectedNodes)
	}
	if res.Stats.SamplesAllNodes != 4*320 { // 400*0.8 train split each
		t.Fatalf("all-node total %d", res.Stats.SamplesAllNodes)
	}
	if res.Stats.TrainTime <= 0 || res.Stats.WallTime <= 0 {
		t.Fatal("timings not recorded")
	}
	if res.Stats.BytesUp <= 0 || res.Stats.BytesDown <= 0 {
		t.Fatal("byte accounting missing")
	}
	// The ensemble must predict the line y = 2x+1 inside the query.
	got := res.Ensemble.Predict([]float64{25})
	if math.Abs(got-51) > 8 {
		t.Fatalf("ensemble predicts %v at x=25, want ~51", got)
	}
	// Evaluate on held-out data restricted to the query.
	mse, samples, ok := EvaluateResult(res, fleet.Test)
	if !ok || samples == 0 {
		t.Fatal("no test samples in query")
	}
	if mse > 30 {
		t.Fatalf("query-driven test MSE %v", mse)
	}
}

func TestExecuteRandomVsQueryDrivenLoss(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	qd, err := fleet.Execute(q, selection.QueryDriven{Epsilon: 0.6, TopL: 2}, WeightedAveraging)
	if err != nil {
		t.Fatal(err)
	}
	qdMSE, _, _ := EvaluateResult(qd, fleet.Test)

	// Average the random baseline over several draws: with the
	// adversarial node in the pool it must do worse on average.
	var rndTotal float64
	const rounds = 5
	for i := 0; i < rounds; i++ {
		rnd, err := fleet.Execute(q, selection.Random{L: 2}, ModelAveraging)
		if err != nil {
			t.Fatal(err)
		}
		mse, _, ok := EvaluateResult(rnd, fleet.Test)
		if !ok {
			t.Fatal("no test data")
		}
		rndTotal += mse
	}
	rndMSE := rndTotal / rounds
	if qdMSE >= rndMSE {
		t.Fatalf("query-driven MSE %v not better than random %v", qdMSE, rndMSE)
	}
}

func TestExecuteGameTheory(t *testing.T) {
	fleet := testFleet(t)
	res, err := fleet.Execute(midQuery(t), selection.GameTheory{L: 2}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	// GT selects worst-loss nodes: the adversarial node-3 has data
	// most unlike the leader's, so it must be selected.
	found := false
	for _, p := range res.Participants {
		if p.NodeID == "node-3" {
			found = true
		}
	}
	if !found {
		t.Fatal("GT did not select the most-different node")
	}
}

func TestLeaderPreTest(t *testing.T) {
	fleet := testFleet(t)
	res, err := fleet.Leader.PreTest(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != selection.RegimeHeterogeneous {
		t.Fatalf("regime %v for a fleet with a flipped node", res.Regime)
	}
	if len(res.Losses) != 4 {
		t.Fatalf("%d losses", len(res.Losses))
	}
	// node-3 must have the highest loss under the leader's model.
	worst := ""
	worstLoss := -1.0
	for id, l := range res.Losses {
		if l > worstLoss {
			worst, worstLoss = id, l
		}
	}
	if worst != "node-3" {
		t.Fatalf("worst node %s, want node-3", worst)
	}
}

// remoteClient stands in for any participant that is not an in-process
// LocalClient, such as a transport.Client over TCP.
type remoteClient struct{ Client }

// TestPreTestScoresInProcessNodesOnly: GameTheory selection and the §II
// pre-test score nodes in process; over any other participant they fail
// with ErrPreTestNotLocal instead of reaching for an RPC.
func TestPreTestScoresInProcessNodesOnly(t *testing.T) {
	fleet := testFleet(t)
	clients := make([]Client, len(fleet.Nodes))
	for i, n := range fleet.Nodes {
		clients[i] = remoteClient{LocalClient{n}}
	}
	leader, err := NewLeader(fleet.Leader.cfg, fleet.Leader.data, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PreTest(0); !errors.Is(err, ErrPreTestNotLocal) {
		t.Fatalf("pre-test over remote participants: err = %v, want ErrPreTestNotLocal", err)
	}
	_, _, err = leader.Execute(context.Background(), Request{Query: midQuery(t), Selector: selection.GameTheory{L: 1}, Aggregation: ModelAveraging})
	if !errors.Is(err, ErrPreTestNotLocal) {
		t.Fatalf("GT over remote participants: err = %v, want ErrPreTestNotLocal", err)
	}
}

func TestLeaderPreTestHomogeneous(t *testing.T) {
	data := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 50, 20),
		lineDataset(300, 2, 1, 0, 50, 21),
		lineDataset(300, 2, 1, 0, 50, 22),
	}
	cfg := Config{Spec: ml.PaperLR(1), Seed: 2}
	fleet, err := NewSimulatedFleet(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Leader.PreTest(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != selection.RegimeHomogeneous {
		t.Fatalf("regime %v (dispersion %v) for identical nodes", res.Regime, res.Dispersion)
	}
}

func TestExecuteNoCandidates(t *testing.T) {
	fleet := testFleet(t)
	far, _ := query.New("q-far", geometry.MustRect([]float64{1e6, 1e6}, []float64{2e6, 2e6}))
	if _, err := fleet.Execute(far, selection.QueryDriven{Epsilon: 0.1, TopL: 2}, ModelAveraging); err == nil {
		t.Fatal("expected no-candidates failure")
	}
}

// TestPreparedOwnsItsMemory: a Prepared is detached from the planner's
// pooled arenas and carries the epoch and selection of the plan it came
// from, so it can sit in a
// queue (or be dropped) while other queries plan; Execute trains exactly
// its participants, and falls back to planning for one it cannot vouch
// for.
func TestPreparedOwnsItsMemory(t *testing.T) {
	l, ctx := testFleet(t).Leader, context.Background()
	q, sel := midQuery(t), selection.QueryDriven{Epsilon: 0.1, TopL: 2}
	pl, err := l.PlanContext(ctx, q, sel)
	if err != nil {
		t.Fatal(err)
	}
	epoch, want := pl.Epoch, pl.CopyParticipants()
	pl.Release()
	prep, err := l.Prepare(ctx, q, sel)
	if err != nil || prep.Epoch != epoch || prep.Epoch != l.SummaryEpoch() || !reflect.DeepEqual(prep.Participants, want) {
		t.Fatalf("Prepare: %+v at epoch %d, err %v; want the plan's %+v at epoch %d", prep.Participants, prep.Epoch, err, want, epoch)
	}
	// Other plans reuse the pooled arenas the selection was copied from.
	for x := 0.0; x < 40; x += 5 {
		other, _ := query.New("q-other", geometry.MustRect([]float64{x, -50}, []float64{x + 50, 250}))
		if _, err := l.Prepare(ctx, other, selection.QueryDriven{Epsilon: 0.1, TopL: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(prep.Participants, want) {
		t.Fatalf("prepared participants changed under later plans: %+v, want %+v", prep.Participants, want)
	}
	res, _, err := l.Execute(ctx, Request{Query: q, Selector: sel, Prepared: prep})
	if err != nil || !reflect.DeepEqual(res.Participants, want) || res.Stats.SelectionTime != 0 {
		t.Fatalf("Execute from the prepared plan: %+v (selection %v) err %v", res, res.Stats.SelectionTime, err)
	}
	// A Prepared built elsewhere carries no snapshot to cut training
	// rectangles from: execute plans for itself.
	res, _, err = l.Execute(ctx, Request{Query: q, Selector: sel, Prepared: &Prepared{Epoch: prep.Epoch}})
	if err != nil || !reflect.DeepEqual(res.Participants, want) || res.Stats.SelectionTime == 0 {
		t.Fatalf("Execute from a foreign Prepared: %+v err %v, want a replan", res, err)
	}
}

func TestFleetValidation(t *testing.T) {
	cfg := Config{Spec: ml.PaperLR(1)}
	if _, err := NewSimulatedFleet(nil, cfg); err == nil {
		t.Fatal("accepted no datasets")
	}
	d1 := lineDataset(50, 1, 0, 0, 10, 30)
	bad := dataset.MustNew([]string{"a", "b"}, "b")
	bad.MustAppend([]float64{1, 2})
	if _, err := NewSimulatedFleet([]*dataset.Dataset{d1, bad}, cfg); err == nil {
		t.Fatal("accepted mixed schemas")
	}
}

func TestFleetSpace(t *testing.T) {
	fleet := testFleet(t)
	space, err := fleet.Space()
	if err != nil {
		t.Fatal(err)
	}
	if space.Dims() != 2 {
		t.Fatalf("space dims %d", space.Dims())
	}
	// Must span all node ranges, including the far node.
	if space.Min[0] > 0.5 || space.Max[0] < 299 {
		t.Fatalf("space x-range [%v,%v]", space.Min[0], space.Max[0])
	}
}

func TestStatsDataFraction(t *testing.T) {
	s := Stats{SamplesUsed: 25, SamplesAllNodes: 100}
	if s.DataFraction() != 0.25 {
		t.Fatalf("fraction %v", s.DataFraction())
	}
	if (Stats{}).DataFraction() != 0 {
		t.Fatal("empty stats fraction should be 0")
	}
}

// TestAntiEntropyTickKeepsDerivedState: a refresh over a fleet where
// every node answers "unchanged" keeps the registry epoch, so a reuse
// cache entry and a Prepared made before the tick still serve after it;
// a tick that sees one re-quantized node retires both.
func TestAntiEntropyTickKeepsDerivedState(t *testing.T) {
	fleet := testFleet(t)
	l, ctx := fleet.Leader, context.Background()
	q, sel := midQuery(t), selection.QueryDriven{Epsilon: 0.1, TopL: 2}
	cache, err := NewReuseCache(0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, reused, err := executeCached(l, cache, q, sel, WeightedAveraging); err != nil || reused {
		t.Fatalf("priming execute: reused=%v err=%v", reused, err)
	}
	prep, err := l.Prepare(ctx, q, sel)
	if err != nil {
		t.Fatal(err)
	}
	fromPrepared := func() bool {
		t.Helper()
		res, _, err := l.Execute(ctx, Request{Query: q, Selector: sel, Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.SelectionTime == 0
	}

	epoch := l.SummaryEpoch()
	if _, err := l.Registry().Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if st := l.Registry().Stats(); l.SummaryEpoch() != epoch || st.DeltaRefreshes != 1 || st.NodesReused != int64(len(fleet.Nodes)) {
		t.Fatalf("unchanged tick moved the epoch %d -> %d: %+v", epoch, l.SummaryEpoch(), st)
	}
	if _, reused, err := executeCached(l, cache, q, sel, WeightedAveraging); err != nil || !reused {
		t.Fatalf("cache entry died on an unchanged tick: reused=%v err=%v", reused, err)
	}
	if !fromPrepared() {
		t.Fatal("Prepared died on an unchanged tick")
	}

	if err := fleet.Nodes[1].Requantize(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Registry().Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if st := l.Registry().Stats(); l.SummaryEpoch() != epoch+1 || st.NodesRefetched != 1 {
		t.Fatalf("tick over one bumped node: epoch %d -> %d, %+v", epoch, l.SummaryEpoch(), st)
	}
	if _, reused, err := executeCached(l, cache, q, sel, WeightedAveraging); err != nil || reused {
		t.Fatalf("cache entry survived a node's epoch bump: reused=%v err=%v", reused, err)
	}
	if fromPrepared() {
		t.Fatal("Prepared survived a node's epoch bump")
	}
}

// TestCaptureTrainingBoundsSizedOnce: a prepared query's training
// rectangles are copied into one buffer sized up front — one
// allocation however many participants and clusters — and equal what
// appending rectangle by rectangle gives.
func TestCaptureTrainingBoundsSizedOnce(t *testing.T) {
	fleet := testFleet(t)
	for _, sel := range []selection.Selector{selection.QueryDriven{Epsilon: 0.6, TopL: 3}, selection.AllNodes{}} {
		prep, err := fleet.Leader.Prepare(context.Background(), midQuery(t), sel)
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		d := prep.snap.Dims
		for _, p := range prep.Participants {
			g := prep.snap.Node(p.NodeID)
			if p.Clusters == nil {
				want.TrainMins = append(want.TrainMins, g.Mins...)
				want.TrainMaxs = append(want.TrainMaxs, g.Maxs...)
			}
			for _, k := range p.Clusters {
				want.TrainMins = append(want.TrainMins, g.Mins[k*d:(k+1)*d]...)
				want.TrainMaxs = append(want.TrainMaxs, g.Maxs[k*d:(k+1)*d]...)
			}
		}
		var got Result
		capture := func() {
			got = Result{Participants: prep.Participants}
			captureTrainingBounds(&got, prep.snap)
		}
		capture()
		if len(want.TrainMins) == 0 || got.TrainDims != d ||
			!reflect.DeepEqual(got.TrainMins, want.TrainMins) || !reflect.DeepEqual(got.TrainMaxs, want.TrainMaxs) {
			t.Fatalf("%s: bounds %v/%v (dims %d), want %v/%v", sel.Name(), got.TrainMins, got.TrainMaxs, got.TrainDims, want.TrainMins, want.TrainMaxs)
		}
		if n := testing.AllocsPerRun(100, capture); n != 1 {
			t.Errorf("%s: captureTrainingBounds allocates %v, want 1", sel.Name(), n)
		}
	}
}

// TestInitialModelMatchesSpecNew: w0 from the pooled model is, bit for
// bit, the model spec.New builds, for consecutive seeds and both model
// kinds, though the pooled model is trained between draws. After each
// draw the pooled model and the fresh one train alike and must stay
// bit-identical, so Reinit is shown to reset the optimizer state, the
// running statistics and the generator a fit leaves behind.
func TestInitialModelMatchesSpecNew(t *testing.T) {
	data := dataset.MustNew([]string{"x0", "x1", "y"}, "y")
	for _, row := range [][]float64{{1, 2, 3}, {3, -1, 1}, {0.5, 4, 5}, {-2, 1, -1}, {7, 3, 11}, {2, 2, 4}} {
		data.MustAppend(row)
	}
	differ := func(got, want ml.Params) string {
		if got.Kind != want.Kind || !reflect.DeepEqual(got.Dims, want.Dims) || len(got.Values) != len(want.Values) {
			return fmt.Sprintf("%s %v ×%d against %s %v ×%d", got.Kind, got.Dims, len(got.Values), want.Kind, want.Dims, len(want.Values))
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				return fmt.Sprintf("value %d is %v against %v", i, got.Values[i], want.Values[i])
			}
		}
		return ""
	}
	for _, spec := range []ml.Spec{ml.PaperLR(2), ml.PaperNN(2)} {
		w0 := NewInitialModel(spec)
		trained := 0
		for seed := uint64(1); seed <= 128; seed++ {
			got, err := w0.Params(seed)
			if err != nil {
				t.Fatal(err)
			}
			s := spec
			s.Seed = seed
			fresh, err := s.New()
			if err != nil {
				t.Fatal(err)
			}
			if d := differ(got, fresh.Params()); d != "" {
				t.Fatalf("%s seed %d: w0 against spec.New's: %s", spec.Kind, seed, d)
			}
			// Train every pooled model. The one Params just reinitialized
			// (the pool may hold others, kept per P) still holds w0, and
			// trains exactly as the fresh one does.
			var pooled []ml.Model
			for m, ok := w0.pool.Get().(ml.Model); ok; m, ok = w0.pool.Get().(ml.Model) {
				pooled = append(pooled, m)
			}
			for _, m := range pooled {
				drawn := differ(m.Params(), got) == ""
				if err := m.PartialFit(context.Background(), data.View(), 3); err != nil {
					t.Fatal(err)
				}
				if drawn {
					if err := fresh.PartialFit(context.Background(), data.View(), 3); err != nil {
						t.Fatal(err)
					}
					if d := differ(m.Params(), fresh.Params()); d != "" {
						t.Fatalf("%s seed %d: the pooled model trained against a fresh one: %s", spec.Kind, seed, d)
					}
					trained++
				}
				w0.pool.Put(m)
			}
		}
		if trained == 0 {
			t.Fatalf("%s: the pool never kept a model to train", spec.Kind)
		}
	}
}
