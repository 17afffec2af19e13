package experiments

import (
	"testing"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

// TestRunStream: the driver keeps the executed queries' results in
// workload order and sums loss and data fraction over the right
// denominators.
func TestRunStream(t *testing.T) {
	env, err := NewEnvironment(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	s := runStream(env.Fleet.Leader, env.Queries, sel, federation.WeightedAveraging, env.Fleet.Test)
	if len(s.results) == 0 || s.scored == 0 || s.scored > len(s.results) || len(s.results) > len(env.Queries) {
		t.Fatalf("%d queries, %d executed, %d scored", len(env.Queries), len(s.results), s.scored)
	}
	next := 0
	frac := 0.0
	for _, r := range s.results {
		for next < len(env.Queries) && env.Queries[next].ID != r.Query.ID {
			next++
		}
		if next == len(env.Queries) {
			t.Fatalf("result for %s out of workload order", r.Query.ID)
		}
		frac += r.Stats.DataFraction()
	}
	if frac != s.frac {
		t.Fatalf("executed fraction sum %v, want %v", s.frac, frac)
	}
	if s.meanLoss() <= 0 || s.scoredFrac <= 0 || s.scoredFrac > s.frac {
		t.Fatalf("mean loss %v, scored fraction sum %v of %v", s.meanLoss(), s.scoredFrac, s.frac)
	}
	if mean := s.frac / float64(len(s.results)); mean <= 0 || mean >= 1 {
		t.Fatalf("mean data fraction %v", mean)
	}
}

// TestRunStreamWithoutTestData: with no test row inside any query
// rectangle every query still executes, and none is scored.
func TestRunStreamWithoutTestData(t *testing.T) {
	env, err := NewEnvironment(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := runStream(env.Fleet.Leader, env.Queries[:5], selection.Random{L: 2}, federation.ModelAveraging, env.Fleet.Test.Empty())
	if len(s.results) != 5 {
		t.Fatalf("executed %d of 5", len(s.results))
	}
	if s.scored != 0 || s.loss != 0 || s.scoredFrac != 0 || s.meanLoss() != 0 {
		t.Fatalf("scoring happened without test data: %+v", s)
	}
}

// TestRunStreamAllFail: queries no node supports are skipped, leaving
// an empty stream, which every caller turns into an error.
func TestRunStreamAllFail(t *testing.T) {
	env, err := NewEnvironment(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.New("far", geometry.MustRect([]float64{1e9, 1e9}, []float64{2e9, 2e9}))
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	s := runStream(env.Fleet.Leader, []query.Query{q}, sel, federation.ModelAveraging, env.Fleet.Test)
	if len(s.results) != 0 || s.scored != 0 || s.frac != 0 {
		t.Fatalf("a query no node supports executed: %+v", s)
	}
	env.Queries = []query.Query{q}
	if _, _, err := env.meanLoss(sel, federation.ModelAveraging); err == nil {
		t.Fatal("meanLoss accepted a stream with no scored query")
	}
}
