package federation_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Example demonstrates the complete per-query pipeline on a simulated
// fleet: generate heterogeneous node data, select participants with
// the query-driven mechanism, train over supporting clusters, and
// aggregate predictions with ranking weights.
func Example() {
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 6, SamplesPerNode: 600, Seed: 42, Heterogeneity: 0.8, FlipFraction: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 5, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	space, err := fleet.Space()
	if err != nil {
		log.Fatal(err)
	}
	qs, err := query.Workload(query.WorkloadConfig{Space: space, Count: 1}, rng.New(3))
	if err != nil {
		log.Fatal(err)
	}
	q := qs[0]
	res, err := fleet.Execute(q,
		selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		federation.WeightedAveraging)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d participants, used %.0f%% of federation data\n",
		len(res.Participants), 100*res.Stats.DataFraction())
	// Output: selected 2 participants, used 9% of federation data
}

// ExampleLeader_Execute shows the leader's one query entry point: the
// paper's single round behind the reuse cache, so repeating the query
// is answered from the cache without training.
func ExampleLeader_Execute() {
	data, _ := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 4, SamplesPerNode: 400, Seed: 5,
	})
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 3, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cache, err := federation.NewReuseCache(0.9, 8)
	if err != nil {
		log.Fatal(err)
	}
	space, _ := fleet.Space()
	qs, _ := query.Workload(query.WorkloadConfig{Space: space, Count: 1}, rng.New(9))
	req := federation.Request{
		Query:       qs[0],
		Selector:    selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		Aggregation: federation.WeightedAveraging,
		Cache:       cache,
	}
	for i := 0; i < 2; i++ {
		res, kind, err := fleet.Leader.Execute(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d participants, %d local models\n", kind, len(res.Participants), res.Ensemble.Size())
	}
	// Output:
	// fresh: 2 participants, 2 local models
	// exact: 2 participants, 2 local models
}

// hospital generates a synthetic patient registry over ages
// [ageLo, ageHi): risk rises with age and biomarker level, plus
// site-specific noise.
func hospital(ageLo, ageHi float64, n int, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"age", "biomarker", "risk"}, "risk")
	for i := 0; i < n; i++ {
		age := src.Uniform(ageLo, ageHi)
		marker := math.Abs(src.Normal(3+age/20, 1.2))
		risk := 0.4*age + 6*marker + src.Normal(0, 3)
		d.MustAppend([]float64{age, marker, risk})
	}
	return d
}

// Example_cohortQuery is the motivation of the paper's §IV-A: hospitals
// cannot share patient records, but a study needs a model over one
// cohort, ages 20-50, and only the records in that range. Of four
// hospitals (a pediatric clinic, two general hospitals, a geriatric
// center), the query-driven mechanism must engage the two general
// hospitals and train only on their matching clusters.
func Example_cohortQuery() {
	names := []string{"pediatric", "general-a", "general-b", "geriatric"}
	fleet, err := federation.NewSimulatedFleet([]*dataset.Dataset{
		hospital(0, 16, 900, 1),
		hospital(18, 70, 900, 2),
		hospital(25, 85, 900, 3),
		hospital(65, 100, 900, 4),
	}, federation.Config{
		Spec:        ml.PaperLR(2), // two features: age, biomarker
		ClusterK:    5,
		LocalEpochs: 8,
		Seed:        9,
	})
	if err != nil {
		log.Fatal(err)
	}
	hospitalOf := func(nodeID string) string {
		idx := 0
		fmt.Sscanf(nodeID, "node-%d", &idx)
		return names[idx]
	}

	// The cohort query: ages 20-50, biomarker 2-7, any risk value.
	cohort, err := query.New("cohort-20-50", geometry.MustRect(
		[]float64{20, 2, -1e3},
		[]float64{50, 7, 1e3},
	))
	if err != nil {
		log.Fatal(err)
	}
	summaries, err := fleet.Leader.Summaries()
	if err != nil {
		log.Fatal(err)
	}
	// ε = 0.7: with one unconstrained dimension (risk always overlaps
	// fully) a binding threshold must demand real age+biomarker
	// overlap too.
	ranks, err := selection.RankNodes(cohort, summaries, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	selection.SortByRank(ranks)
	for _, r := range ranks {
		fmt.Printf("%-10s rank=%.3f  matching records: %d of %d\n",
			hospitalOf(r.NodeID), r.Rank, r.SupportingSamples, r.TotalSamples)
	}

	res, err := fleet.Execute(cohort, selection.QueryDriven{Epsilon: 0.7, TopL: 2}, federation.WeightedAveraging)
	if err != nil {
		log.Fatal(err)
	}
	engaged := make([]string, len(res.Participants))
	for i, p := range res.Participants {
		engaged[i] = hospitalOf(p.NodeID)
	}
	fmt.Printf("engaged hospitals: %s\n", strings.Join(engaged, " "))
	fmt.Printf("cohort model trained on %d records (%.1f%% of all hospital data)\n",
		res.Stats.SamplesUsed, 100*res.Stats.DataFraction())
	if mse, n, ok := federation.EvaluateResult(res, fleet.Test); ok {
		fmt.Printf("held-out cohort MSE: %.2f over %d patients\n", mse, n)
	}
	fmt.Printf("predicted risk for (age=35, biomarker=4.5): %.1f\n",
		res.Ensemble.Predict([]float64{35, 4.5}))
	// Output:
	// general-a  rank=1.385  matching records: 363 of 720
	// general-b  rank=0.678  matching records: 260 of 720
	// pediatric  rank=0.000  matching records: 0 of 720
	// geriatric  rank=0.000  matching records: 0 of 720
	// engaged hospitals: general-a general-b
	// cohort model trained on 623 records (21.6% of all hospital data)
	// held-out cohort MSE: 11.32 over 165 patients
	// predicted risk for (age=35, biomarker=4.5): 40.6
}
