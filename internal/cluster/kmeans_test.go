package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"qens/internal/dataset"
	"qens/internal/matrix"
	"qens/internal/rng"
)

// threeBlobs generates three well-separated Gaussian blobs.
func threeBlobs(n int, src *rng.Source) (points *dataset.Dataset, labels []int) {
	centers := [][]float64{{0, 0}, {20, 0}, {0, 20}}
	points = dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		c := i % 3
		points.MustAppend([]float64{
			src.Normal(centers[c][0], 1),
			src.Normal(centers[c][1], 1),
		})
		labels = append(labels, c)
	}
	return points, labels
}

// rowsDataset holds the given rows, one column per value.
func rowsDataset(rows ...[]float64) *dataset.Dataset {
	cols := make([]string, len(rows[0]))
	for j := range cols {
		cols[j] = fmt.Sprint("c", j)
	}
	d := dataset.MustNew(cols, cols[len(cols)-1])
	for _, r := range rows {
		d.MustAppend(r)
	}
	return d
}

func TestKMeansRecoversBlobs(t *testing.T) {
	src := rng.New(1)
	points, labels := threeBlobs(300, src)
	res, err := KMeans(points, Config{K: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("%d clusters", len(res.Clusters))
	}
	// Every pair of points from the same blob must share a cluster.
	blobToCluster := map[int]int{}
	for i := range labels {
		b := labels[i]
		if c, ok := blobToCluster[b]; ok {
			if res.Assignments[i] != c {
				t.Fatalf("blob %d split across clusters", b)
			}
		} else {
			blobToCluster[b] = res.Assignments[i]
		}
	}
	if len(blobToCluster) != 3 {
		t.Fatal("blobs merged")
	}
}

func TestKMeansInertiaConsistent(t *testing.T) {
	src := rng.New(2)
	points, _ := threeBlobs(150, src)
	res, err := KMeans(points, Config{K: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := Inertia(points, res.Clusters, res.Assignments)
	if math.Abs(recomputed-res.Inertia) > 1e-9 {
		t.Fatalf("inertia %v, recomputed %v", res.Inertia, recomputed)
	}
}

func TestKMeansErrors(t *testing.T) {
	src := rng.New(1)
	if _, err := KMeans(rowsDataset([]float64{1}), Config{K: 2}, src); err == nil {
		t.Fatal("accepted fewer points than clusters")
	}
	if _, err := KMeans(rowsDataset([]float64{1}, []float64{2}), Config{K: 0}, src); err == nil {
		t.Fatal("accepted K=0")
	}
}

func TestKMeansSinglePointPerCluster(t *testing.T) {
	points := rowsDataset([]float64{0, 0}, []float64{10, 10}, []float64{20, 20})
	res, err := KMeans(points, Config{K: 3}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("exact clustering should have zero inertia, got %v", res.Inertia)
	}
	for _, c := range res.Clusters {
		if c.Size != 1 {
			t.Fatalf("cluster size %d, want 1", c.Size)
		}
	}
}

func TestKMeansK1(t *testing.T) {
	src := rng.New(4)
	points, _ := threeBlobs(90, src)
	res, err := KMeans(points, Config{K: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	// The single centroid must be the global mean.
	mean := make([]float64, 2)
	for i := range points.Len() {
		matrix.AxpyVec(mean, 1, points.Row(i))
	}
	matrix.ScaleVec(mean, 1/float64(points.Len()))
	if matrix.Dist(mean, res.Clusters[0].Centroid) > 1e-6 {
		t.Fatalf("K=1 centroid %v, want mean %v", res.Clusters[0].Centroid, mean)
	}
	if res.Clusters[0].Size != points.Len() {
		t.Fatal("K=1 cluster must hold all points")
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	points := rowsDataset([]float64{1, 1}, []float64{1, 1}, []float64{1, 1}, []float64{5, 5})
	res, err := KMeans(points, Config{K: 2}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Clusters {
		total += c.Size
	}
	if total != 4 {
		t.Fatalf("cluster sizes sum to %d", total)
	}
}

func TestKMeansBoundsContainMembers(t *testing.T) {
	src := rng.New(6)
	points, _ := threeBlobs(200, src)
	res, err := KMeans(points, Config{K: 4}, src)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range res.Clusters {
		for _, m := range c.Members {
			if !c.Bounds.Contains(points.Row(m)) {
				t.Fatalf("cluster %d bounds exclude member %d", ci, m)
			}
		}
	}
}

func TestKMeansRestartsNotWorse(t *testing.T) {
	src1, src2 := rng.New(7), rng.New(7)
	points, _ := threeBlobs(200, rng.New(8))
	one, err := KMeans(points, Config{K: 5, Restarts: 1}, src1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := KMeans(points, Config{K: 5, Restarts: 8}, src2)
	if err != nil {
		t.Fatal(err)
	}
	if many.Inertia > one.Inertia*(1+1e-9) {
		t.Fatalf("restarts made inertia worse: %v vs %v", many.Inertia, one.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	points, _ := threeBlobs(120, rng.New(9))
	a, _ := KMeans(points, Config{K: 3}, rng.New(10))
	b, _ := KMeans(points, Config{K: 3}, rng.New(10))
	if a.Inertia != b.Inertia {
		t.Fatalf("non-deterministic inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("non-deterministic assignments")
		}
	}
}

// Property: every point is assigned to its genuinely nearest centroid
// after convergence (Lloyd's invariant).
func TestKMeansNearestAssignmentInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		points, _ := threeBlobs(60, src)
		res, err := KMeans(points, Config{K: 3}, src)
		if err != nil {
			return false
		}
		for i := range points.Len() {
			p := points.Row(i)
			assigned := matrix.SqDist(p, res.Clusters[res.Assignments[i]].Centroid)
			for _, c := range res.Clusters {
				if matrix.SqDist(p, c.Centroid) < assigned-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: inertia never increases when K increases (with shared
// seeding and enough restarts this holds empirically for blobs).
func TestInertiaDecreasesWithK(t *testing.T) {
	points, _ := threeBlobs(300, rng.New(11))
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := KMeans(points, Config{K: k, Restarts: 6}, rng.New(12))
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*(1+0.01) {
			t.Fatalf("inertia rose at K=%d: %v after %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}
