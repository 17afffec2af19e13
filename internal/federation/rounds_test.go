package federation

import (
	"context"
	"math"
	"testing"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

// executeMultiRound runs q as an n-round FedAvg query.
func executeMultiRound(l *Leader, q query.Query, sel selection.Selector, n int) (*Result, error) {
	res, _, err := l.Execute(context.Background(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Rounds: n})
	return res, err
}

func TestExecuteMultiRound(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res, err := executeMultiRound(fleet.Leader, q, sel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundDeltas) != 3 {
		t.Fatalf("round deltas %d, want 3", len(res.RoundDeltas))
	}
	// Every round of every participant is attributed, and the result
	// says which aggregate it carries.
	if want := 3 * len(res.Participants); len(res.NodeRounds) != want || res.NodeRounds[want-1].Round != 2 {
		t.Fatalf("node rounds %+v, want %d ending in round 2", res.NodeRounds, want)
	}
	if res.Aggregation != WeightedAveraging || len(res.GlobalParams.Values) == 0 {
		t.Fatalf("aggregation %v, global params %v", res.Aggregation, res.GlobalParams)
	}
	// The converged single global model must predict the line.
	if res.Ensemble.Size() != 1 {
		t.Fatalf("ensemble size %d, want 1", res.Ensemble.Size())
	}
	got := res.Ensemble.Predict([]float64{25})
	if math.Abs(got-51) > 10 {
		t.Fatalf("fedavg model predicts %v at x=25, want ~51", got)
	}
	// Parameter movement should not blow up over rounds.
	if res.RoundDeltas[2] > res.RoundDeltas[0]*10 {
		t.Fatalf("rounds diverging: deltas %v", res.RoundDeltas)
	}
	// Accounting scales with rounds.
	if res.Stats.SamplesUsed <= 0 || res.Stats.BytesUp <= res.Stats.BytesDown/10 {
		t.Fatalf("stats look wrong: %+v", res.Stats)
	}
}

func TestExecuteMultiRoundValidation(t *testing.T) {
	fleet := testFleet(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	if _, err := executeMultiRound(fleet.Leader, midQuery(t), sel, -1); err == nil {
		t.Fatal("accepted -1 rounds")
	}
}

func TestExecuteMultiRoundImprovesOverOneRound(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	one, err := executeMultiRound(fleet.Leader, q, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	five, err := executeMultiRound(fleet.Leader, q, sel, 5)
	if err != nil {
		t.Fatal(err)
	}
	mse1, _, ok1 := EvaluateResult(one, fleet.Test)
	mse5, _, ok5 := EvaluateResult(five, fleet.Test)
	if !ok1 || !ok5 {
		t.Fatal("no test data in query")
	}
	// Five rounds must not be dramatically worse than one (usually
	// better); a 2x regression indicates a broken aggregation loop.
	if mse5 > mse1*2 {
		t.Fatalf("5 rounds (%v) much worse than 1 (%v)", mse5, mse1)
	}
}

func TestEvaluateGlobal(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res, err := executeMultiRound(fleet.Leader, q, sel, 2)
	if err != nil {
		t.Fatal(err)
	}
	mse, n, err := fleet.Leader.EvaluateGlobal(res.GlobalParams, q.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no in-query samples across the federation")
	}
	if mse <= 0 || mse > 200 {
		t.Fatalf("pooled MSE %v", mse)
	}
	// Bounds with no data anywhere: zero samples, no error.
	far := geometry.MustRect([]float64{1e6, 1e6}, []float64{2e6, 2e6})
	mse, n, err = fleet.Leader.EvaluateGlobal(res.GlobalParams, far)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || mse != 0 {
		t.Fatalf("far bounds gave mse=%v n=%d", mse, n)
	}
}
