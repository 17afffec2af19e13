package cluster

import (
	"testing"

	"qens/internal/dataset"
	"qens/internal/rng"
)

func TestGridQuantizeBasics(t *testing.T) {
	d := testDataset(t, 300, 30)
	q, err := GridQuantize(d, 3) // up to 9 cells in 2-D
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Result.Clusters) == 0 || len(q.Result.Clusters) > 9 {
		t.Fatalf("%d cells", len(q.Result.Clusters))
	}
	total := 0
	for ci, c := range q.Result.Clusters {
		if c.Size != len(c.Members) {
			t.Fatalf("cell %d size mismatch", ci)
		}
		total += c.Size
		for _, m := range c.Members {
			if !c.Bounds.Contains(d.Row(m)) {
				t.Fatalf("cell %d bounds exclude member %d", ci, m)
			}
			if q.Result.Assignments[m] != ci {
				t.Fatalf("assignment mismatch for row %d", m)
			}
		}
	}
	if total != 300 {
		t.Fatalf("cells cover %d rows", total)
	}
}

func TestGridQuantizeSummary(t *testing.T) {
	d := testDataset(t, 200, 31)
	q, err := GridQuantize(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Summarize("grid-node")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalSamples != 200 {
		t.Fatalf("total %d", s.TotalSamples)
	}
}

func TestGridQuantizeDeterministic(t *testing.T) {
	d := testDataset(t, 150, 32)
	a, _ := GridQuantize(d, 3)
	b, _ := GridQuantize(d, 3)
	if len(a.Result.Clusters) != len(b.Result.Clusters) {
		t.Fatal("non-deterministic cell count")
	}
	for i := range a.Result.Assignments {
		if a.Result.Assignments[i] != b.Result.Assignments[i] {
			t.Fatal("non-deterministic assignment")
		}
	}
}

func TestGridQuantizeErrors(t *testing.T) {
	if _, err := GridQuantize(dataset.MustNew([]string{"x", "y"}, "y"), 3); err == nil {
		t.Fatal("accepted empty dataset")
	}
	d := testDataset(t, 10, 33)
	if _, err := GridQuantize(d, 0); err == nil {
		t.Fatal("accepted zero buckets")
	}
	// 2^33 buckets in each of 2 dims make 2^66 cells: no 64-bit key.
	if _, err := GridQuantize(d, 1<<33); err == nil {
		t.Fatal("accepted a grid whose cell key overflows 64 bits")
	}
}

func TestGridQuantizeSingleBucket(t *testing.T) {
	d := testDataset(t, 50, 34)
	q, err := GridQuantize(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Result.Clusters) != 1 || q.Result.Clusters[0].Size != 50 {
		t.Fatalf("single bucket: %d cells", len(q.Result.Clusters))
	}
}

func TestGridQuantizeConstantColumn(t *testing.T) {
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < 30; i++ {
		d.MustAppend([]float64{5, float64(i)})
	}
	q, err := GridQuantize(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Constant x collapses to one bucket in that dimension.
	if len(q.Result.Clusters) > 3 {
		t.Fatalf("%d cells for a constant column", len(q.Result.Clusters))
	}
}

func TestGridVsKMeansInertia(t *testing.T) {
	d := testDataset(t, 400, 35)
	grid, err := GridQuantize(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	km, err := Quantize(d, Config{K: len(grid.Result.Clusters), Restarts: 3}, rng.New(36))
	if err != nil {
		t.Fatal(err)
	}
	// k-means optimizes Eq. 1 directly; at equal cell counts it must
	// not be (much) worse than the data-oblivious grid.
	if km.Result.Inertia > grid.Result.Inertia*1.1 {
		t.Fatalf("k-means inertia %v worse than grid %v", km.Result.Inertia, grid.Result.Inertia)
	}
}

// TestGridQuantizeManyBuckets: a cell is keyed by its full bucket
// indices, so past 256 buckets a dimension's index does not wrap and
// alias two cells into one.
func TestGridQuantizeManyBuckets(t *testing.T) {
	const n = 300
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		d.MustAppend([]float64{float64(i), float64(i)})
	}
	q, err := GridQuantize(d, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.Result.Clusters); got != n {
		t.Fatalf("%d buckets over %d distinct rows give %d cells, want %d", n, n, got, n)
	}
	for ci, c := range q.Result.Clusters {
		if c.Size != 1 || c.Members[0] != ci {
			t.Fatalf("cell %d holds rows %v, want [%d]", ci, c.Members, ci)
		}
	}
}
