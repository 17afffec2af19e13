// Package cluster implements the k-means quantization each edge node
// applies to its local data space (paper §III-C, Eq. 1): Lloyd's
// algorithm with k-means++ seeding, the quantization loss (inertia),
// and the cluster summaries — bounding rectangles, representatives and
// sizes — that nodes ship to the leader. Shipping only these summaries
// is what gives the paper its O(1) communication claim.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/matrix"
	"qens/internal/rng"
)

// Config controls a k-means run.
type Config struct {
	// K is the number of clusters (the paper fixes K = 5 for all
	// nodes "to avoid biases", §V-A).
	K int
	// Restarts runs the algorithm this many times with different
	// seedings and keeps the lowest-inertia result (default 1).
	Restarts int
}

const (
	// maxIterations bounds Lloyd's algorithm.
	maxIterations = 100
	// tolerance stops iteration when no centroid moves farther than
	// this Euclidean distance.
	tolerance = 1e-6
)

func (c Config) withDefaults() Config {
	if c.Restarts == 0 {
		c.Restarts = 1
	}
	return c
}

// Validate checks the configuration against a dataset of n points.
func (c Config) Validate(n int) error {
	if c.K < 1 {
		return fmt.Errorf("cluster: K must be positive, got %d", c.K)
	}
	if n < c.K {
		return fmt.Errorf("%w: %d points for K=%d", ErrTooFewPoints, n, c.K)
	}
	return nil
}

// ErrTooFewPoints reports fewer points than clusters.
var ErrTooFewPoints = errors.New("cluster: fewer points than clusters")

// Cluster is one quantization cell: its representative (the paper's
// u_k), the tight bounding rectangle of its members (the paper's
// boundary vector k), the member indices into the clustered data, and
// the member count.
type Cluster struct {
	Centroid []float64
	Bounds   geometry.Rect
	Members  []int
	Size     int
}

// Result is the outcome of a k-means run.
type Result struct {
	Clusters []Cluster
	// Inertia is the quantization loss of Eq. 1: the sum of squared
	// distances from every point to its assigned representative.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Assignments maps each input point to its cluster index.
	Assignments []int
}

// KMeans clusters the samples of d (each a d-dimensional point, the
// paper's ξ) into cfg.K cells.
func KMeans(d *dataset.Dataset, cfg Config, src *rng.Source) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(d.Len()); err != nil {
		return nil, err
	}
	var best *Result
	for r := 0; r < cfg.Restarts; r++ {
		res := lloyd(d.Values(), d.Dims(), cfg, src)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// The functions below read the points as one row-major slice with
// stride dims, taking point i as points[i*dims:(i+1)*dims] of a local
// slice. The assignment and update loops run once per point per Lloyd
// iteration: on a 6000-row Quantize (2-core Xeon, -cpu 1) this form
// measured as fast as ranging over a [][]float64, and walking the
// slice by a shrinking stride (rest = rest[dims:]) about 10% slower.

// lloyd runs one seeded Lloyd optimization.
func lloyd(points []float64, dims int, cfg Config, src *rng.Source) *Result {
	centroids := seedPlusPlus(points, dims, cfg.K, src)
	assign := make([]int, len(points)/dims)
	counts := make([]int, cfg.K)
	sums := make([][]float64, cfg.K)
	for k := range sums {
		sums[k] = make([]float64, dims)
	}

	iterations := 0
	for ; iterations < maxIterations; iterations++ {
		// Assignment step (parallel across GOMAXPROCS; bit-exact).
		assignPoints(points, dims, centroids, assign)
		// Update step.
		for k := range sums {
			counts[k] = 0
			for j := range sums[k] {
				sums[k][j] = 0
			}
		}
		for i, k := range assign {
			counts[k]++
			matrix.AxpyVec(sums[k], 1, point(points, dims, i))
		}
		moved := 0.0
		for k := range centroids {
			if counts[k] == 0 {
				// Empty cluster: reseed at the point farthest from
				// its current centroid, a standard Lloyd repair.
				far := farthestPoint(points, dims, centroids, assign)
				copy(centroids[k], point(points, dims, far))
				assign[far] = k
				moved = math.Inf(1)
				continue
			}
			inv := 1 / float64(counts[k])
			for j := range centroids[k] {
				next := sums[k][j] * inv
				moved = math.Max(moved, math.Abs(next-centroids[k][j]))
				centroids[k][j] = next
			}
		}
		if moved <= tolerance {
			iterations++
			break
		}
	}

	// Final assignment with the settled centroids.
	assignPoints(points, dims, centroids, assign)
	return buildResult(points, dims, centroids, assign, iterations)
}

// point returns point i of the row-major points.
func point(points []float64, dims, i int) []float64 {
	return points[i*dims : (i+1)*dims]
}

// assignParallelThreshold is the dataset size below which sharding the
// assignment step costs more in goroutine churn than it saves. Small
// node partitions (the common per-edge case) stay on the sequential
// path.
const assignParallelThreshold = 2048

// assignPoints computes assign[i] = nearest(point i, centroids),
// sharding the loop across GOMAXPROCS workers for large datasets.
// Each point's nearest centroid depends only on that point and the
// (read-only) centroids, and every worker writes a disjoint slice of
// assign, so the parallel result is bit-for-bit identical to the
// sequential loop — the update and inertia accumulations, whose float
// summation order matters, stay sequential in the caller.
func assignPoints(points []float64, dims int, centroids [][]float64, assign []int) {
	n := len(assign)
	workers := runtime.GOMAXPROCS(0)
	if n < assignParallelThreshold || workers < 2 {
		assignRange(points, dims, centroids, assign)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			assignRange(points[lo*dims:hi*dims], dims, centroids, assign[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// assignRange sets assign[i] to the centroid nearest point i, for
// every point of the row-major points.
func assignRange(points []float64, dims int, centroids [][]float64, assign []int) {
	for i := range assign {
		assign[i] = nearest(point(points, dims, i), centroids)
	}
}

// seedPlusPlus performs k-means++ initialization.
func seedPlusPlus(points []float64, dims, k int, src *rng.Source) [][]float64 {
	n := len(points) / dims
	centroids := make([][]float64, 0, k)
	first := src.Intn(n)
	centroids = append(centroids, matrix.CloneVec(point(points, dims, first)))

	dist := make([]float64, n)
	for i := range dist {
		dist[i] = matrix.SqDist(point(points, dims, i), centroids[0])
	}
	for len(centroids) < k {
		idx := src.Choice(dist)
		centroids = append(centroids, matrix.CloneVec(point(points, dims, idx)))
		for i := range dist {
			if d2 := matrix.SqDist(point(points, dims, i), centroids[len(centroids)-1]); d2 < dist[i] {
				dist[i] = d2
			}
		}
	}
	return centroids
}

// nearest returns the index of the centroid closest to p.
func nearest(p []float64, centroids [][]float64) int {
	best, bestDist := 0, math.Inf(1)
	for k, c := range centroids {
		if d2 := matrix.SqDist(p, c); d2 < bestDist {
			best, bestDist = k, d2
		}
	}
	return best
}

// farthestPoint returns the index of the point farthest from its
// assigned centroid, used to repair empty clusters.
func farthestPoint(points []float64, dims int, centroids [][]float64, assign []int) int {
	best, bestDist := 0, -1.0
	for i, c := range assign {
		if d2 := matrix.SqDist(point(points, dims, i), centroids[c]); d2 > bestDist {
			best, bestDist = i, d2
		}
	}
	return best
}

// buildResult assembles clusters, bounds and inertia. The result
// adopts assign as its Assignments. Member lists are sized from a
// count over assign: lloyd's counts predate the final assignment.
func buildResult(points []float64, dims int, centroids [][]float64, assign []int, iterations int) *Result {
	sizes := make([]int, len(centroids))
	for _, c := range assign {
		sizes[c]++
	}
	clusters := make([]Cluster, len(centroids))
	for c := range clusters {
		clusters[c].Centroid = matrix.CloneVec(centroids[c])
		clusters[c].Members = make([]int, 0, sizes[c])
	}
	inertia := 0.0
	for i, c := range assign {
		p := point(points, dims, i)
		clusters[c].Members = append(clusters[c].Members, i)
		clusters[c].Bounds.ExpandToInclude(p)
		inertia += matrix.SqDist(p, centroids[c])
	}
	for c := range clusters {
		clusters[c].Size = len(clusters[c].Members)
		if clusters[c].Size == 0 {
			// Empty cluster (possible only at K > distinct points):
			// degenerate rectangle at the centroid.
			clusters[c].Bounds.ExpandToInclude(clusters[c].Centroid)
		}
	}
	return &Result{Clusters: clusters, Inertia: inertia, Iterations: iterations, Assignments: assign}
}

// Inertia recomputes Eq. 1 for a given assignment of d's samples.
func Inertia(d *dataset.Dataset, clusters []Cluster, assign []int) float64 {
	total := 0.0
	for i, c := range assign {
		total += matrix.SqDist(d.Row(i), clusters[c].Centroid)
	}
	return total
}
