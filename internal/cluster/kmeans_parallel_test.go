package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"qens/internal/dataset"
	"qens/internal/rng"
)

// TestAssignPointsMatchesSequential pins the parallel assignment step
// to the sequential loop, element for element, on a dataset large
// enough to cross assignParallelThreshold. Nearest-centroid lookup is
// a pure per-point function, so any divergence is a sharding bug.
func TestAssignPointsMatchesSequential(t *testing.T) {
	src := rng.New(41)
	n := assignParallelThreshold * 2
	points := make([]float64, 3*n)
	for i := range points {
		points[i] = src.Float64() * 10
	}
	centroids := make([][]float64, 7)
	for k := range centroids {
		centroids[k] = []float64{src.Float64() * 10, src.Float64() * 10, src.Float64() * 10}
	}

	want := make([]int, n)
	for i := range want {
		want[i] = nearest(point(points, 3, i), centroids)
	}
	got := make([]int, n)
	assignPoints(points, 3, centroids, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assign[%d] = %d parallel, %d sequential", i, got[i], want[i])
		}
	}
}

// TestKMeansParallelDeterminism runs the full algorithm on a large
// dataset at GOMAXPROCS=1 (forcing the sequential path through the
// worker-count guard) and again at the ambient parallelism, and
// requires bit-identical results: same assignments, same iteration
// count, and float-bit-equal centroids and inertia. This is the
// satellite's contract that parallelizing Lloyd's assignment step
// changes wall-clock time and nothing else.
func TestKMeansParallelDeterminism(t *testing.T) {
	src := rng.New(42)
	n := assignParallelThreshold + 512
	points := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		c := float64(i % 3 * 8)
		points.MustAppend([]float64{c + src.Normal(0, 1), c + src.Normal(0, 1)})
	}

	prev := runtime.GOMAXPROCS(1)
	seq, err := KMeans(points, Config{K: 5}, rng.New(7))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if prev < 2 {
		t.Log("single-CPU runner: parallel and sequential paths coincide")
	}
	par, err := KMeans(points, Config{K: 5}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(seq.Inertia) != math.Float64bits(par.Inertia) {
		t.Fatalf("inertia differs: %v sequential, %v parallel", seq.Inertia, par.Inertia)
	}
	if seq.Iterations != par.Iterations {
		t.Fatalf("iterations differ: %d sequential, %d parallel", seq.Iterations, par.Iterations)
	}
	if !reflect.DeepEqual(seq.Assignments, par.Assignments) {
		t.Fatal("assignments differ between sequential and parallel runs")
	}
	for k := range seq.Clusters {
		for j := range seq.Clusters[k].Centroid {
			a := math.Float64bits(seq.Clusters[k].Centroid[j])
			b := math.Float64bits(par.Clusters[k].Centroid[j])
			if a != b {
				t.Fatalf("centroid %d dim %d differs in bits: %x vs %x", k, j, a, b)
			}
		}
	}
}

// BenchmarkAssignPoints measures the assignment step both ways so the
// speedup (and the small-N break-even) is visible in bench output.
func BenchmarkAssignPoints(b *testing.B) {
	src := rng.New(43)
	n := 32768
	points := make([]float64, 4*n)
	for i := range points {
		points[i] = src.Float64()
	}
	centroids := make([][]float64, 8)
	for k := range centroids {
		centroids[k] = []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()}
	}
	assign := make([]int, n)

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			assignRange(points, 4, centroids, assign)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			assignPoints(points, 4, centroids, assign)
		}
	})
}
