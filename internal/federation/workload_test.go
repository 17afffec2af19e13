package federation

import (
	"testing"

	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

func TestRunWorkload(t *testing.T) {
	fleet := testFleet(t)
	space, err := fleet.Space()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := query.Workload(query.WorkloadConfig{Space: space, Count: 10}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	report, err := RunWorkload(fleet.Leader, queries, sel, WeightedAveraging, fleet.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != 10 {
		t.Fatalf("%d outcomes", len(report.Outcomes))
	}
	if report.Executed == 0 || report.Scored == 0 {
		t.Fatalf("executed %d scored %d", report.Executed, report.Scored)
	}
	if report.MeanMSE <= 0 || report.MeanDataFraction <= 0 || report.MeanDataFraction >= 1 {
		t.Fatalf("aggregates %v/%v", report.MeanMSE, report.MeanDataFraction)
	}
	if report.TotalTrainTime <= 0 {
		t.Fatal("no train time recorded")
	}
	// Failures + successes must partition the workload.
	failed := 0
	for _, o := range report.Outcomes {
		if o.Err != nil {
			failed++
		}
	}
	if failed+report.Executed != 10 {
		t.Fatalf("failed %d + executed %d != 10", failed, report.Executed)
	}
}

func TestRunWorkloadWithoutTest(t *testing.T) {
	fleet := testFleet(t)
	space, _ := fleet.Space()
	queries, _ := query.Workload(query.WorkloadConfig{Space: space, Count: 5}, rng.New(9))
	report, err := RunWorkload(fleet.Leader, queries, selection.Random{L: 2}, ModelAveraging, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Scored != 0 || report.MeanMSE != 0 {
		t.Fatalf("scoring happened without test data: %+v", report)
	}
	if report.Executed != 5 {
		t.Fatalf("executed %d", report.Executed)
	}
}

func TestRunWorkloadErrors(t *testing.T) {
	fleet := testFleet(t)
	if _, err := RunWorkload(nil, nil, selection.AllNodes{}, ModelAveraging, nil); err == nil {
		t.Fatal("accepted nil leader")
	}
	if _, err := RunWorkload(fleet.Leader, nil, selection.AllNodes{}, ModelAveraging, nil); err == nil {
		t.Fatal("accepted empty workload")
	}
	// A workload where every query fails must error.
	q, _ := query.New("far", midQuery(t).Bounds)
	q.Bounds.Min[0], q.Bounds.Max[0] = 1e9, 2e9
	q.Bounds.Min[1], q.Bounds.Max[1] = 1e9, 2e9
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	if _, err := RunWorkload(fleet.Leader, []query.Query{q}, sel, ModelAveraging, nil); err == nil {
		t.Fatal("accepted all-failed workload")
	}
}
