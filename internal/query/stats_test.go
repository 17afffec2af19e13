package query

import (
	"math"
	"testing"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/rng"
)

func TestEstimateSelectivityExact(t *testing.T) {
	// One node, one cluster [0,10]x[0,10] with 100 samples; query
	// covers the left half -> estimate 50.
	sums := []cluster.NodeSummary{{
		NodeID: "n",
		Clusters: []cluster.Summary{{
			Bounds: geometry.MustRect([]float64{0, 0}, []float64{10, 10}),
			Size:   100,
		}},
		TotalSamples: 100,
	}}
	q, _ := New("q", geometry.MustRect([]float64{0, 0}, []float64{5, 10}))
	est, err := EstimateSelectivity(q, sums)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Samples-50) > 1e-9 || math.Abs(est.Fraction-0.5) > 1e-9 {
		t.Fatalf("estimate %+v", est)
	}
	if est.PerNode["n"] != 50 {
		t.Fatalf("per-node estimate %v", est.PerNode)
	}
}

func TestEstimateSelectivityErrors(t *testing.T) {
	q, _ := New("q", geometry.MustRect([]float64{0}, []float64{1}))
	if _, err := EstimateSelectivity(q, []cluster.NodeSummary{{}}); err == nil {
		t.Fatal("accepted invalid summary")
	}
	sums := []cluster.NodeSummary{{
		NodeID: "n",
		Clusters: []cluster.Summary{{
			Bounds: geometry.MustRect([]float64{0, 0}, []float64{1, 1}),
			Size:   10,
		}},
		TotalSamples: 10,
	}}
	if _, err := EstimateSelectivity(q, sums); err == nil {
		t.Fatal("accepted dimension mismatch")
	}
}

// The estimate must approximate the true in-query sample count on real
// clustered data: uniform-density per cluster is only a model, so
// allow a factor-2 band.
func TestEstimateSelectivityApproximatesTruth(t *testing.T) {
	src := rng.New(7)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < 1000; i++ {
		x := src.Uniform(0, 100)
		d.MustAppend([]float64{x, 2*x + src.Normal(0, 5)})
	}
	quant, err := cluster.Quantize(d, cluster.Config{K: 5}, src)
	if err != nil {
		t.Fatal(err)
	}
	sums := []cluster.NodeSummary{quant.Summarize("n")}
	q, _ := New("q", geometry.MustRect([]float64{20, -50}, []float64{60, 150}))
	est, err := EstimateSelectivity(q, sums)
	if err != nil {
		t.Fatal(err)
	}
	actual := d.FilterInRect(q.Bounds).Len()
	if actual == 0 {
		t.Fatal("query covers no data; bad test setup")
	}
	ratio := est.Samples / float64(actual)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("estimate %v vs actual %d (ratio %v)", est.Samples, actual, ratio)
	}
}
