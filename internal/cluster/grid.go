package cluster

import (
	"fmt"
	"math"

	"qens/internal/dataset"
)

// Grid quantization: the classic database alternative to the paper's
// k-means ("each node has quantized its own data space, e.g., using
// the k-means algorithm" — §III-C leaves the quantizer open). An
// equi-width grid partitions each dimension into a fixed number of
// buckets; non-empty cells become cluster summaries. Grids are far
// cheaper to build (one pass, no iterations) and deterministic without
// seeds, at the cost of cells that follow axis boundaries rather than
// data structure — the k-means-vs-grid ablation quantifies the
// difference.

// GridQuantize partitions d's joint space into bucketsPerDim^dims
// equi-width cells and returns the non-empty ones as a Quantization.
// Cell bounding rectangles are tightened to their actual members (like
// k-means bounds), so downstream overlap math is identical.
func GridQuantize(d *dataset.Dataset, bucketsPerDim int) (*Quantization, error) {
	if d.Len() == 0 {
		return nil, dataset.ErrEmpty
	}
	if bucketsPerDim < 1 {
		return nil, fmt.Errorf("cluster: buckets per dim %d < 1", bucketsPerDim)
	}
	bounds, _ := d.Bounds()
	dims := d.Dims()

	// A cell's key is its bucket indices as base-bucketsPerDim digits.
	for dim, cells := 0, uint64(1); dim < dims; dim, cells = dim+1, cells*uint64(bucketsPerDim) {
		if cells > math.MaxUint64/uint64(bucketsPerDim) {
			return nil, fmt.Errorf("cluster: %d buckets over %d dims make more cells than a 64-bit key holds", bucketsPerDim, dims)
		}
	}

	// Assign each row to its grid cell; cells are numbered in the order
	// their first row appears.
	cellOf := map[uint64]int{}
	assign := make([]int, d.Len())
	var sizes []int
	for i := range assign {
		row := d.Row(i)
		var key uint64
		for dim := 0; dim < dims; dim++ {
			span := bounds.Width(dim)
			idx := 0
			if span > 0 {
				idx = int(float64(bucketsPerDim) * (row[dim] - bounds.Min[dim]) / span)
				if idx == bucketsPerDim { // max value lands in the last bucket
					idx = bucketsPerDim - 1
				}
			}
			key = key*uint64(bucketsPerDim) + uint64(idx)
		}
		ci, seen := cellOf[key]
		if !seen {
			ci = len(sizes)
			cellOf[key] = ci
			sizes = append(sizes, 0)
		}
		assign[i] = ci
		sizes[ci]++
	}

	clusters := make([]Cluster, len(sizes))
	for ci := range clusters {
		clusters[ci].Centroid = make([]float64, dims)
		clusters[ci].Members = make([]int, 0, sizes[ci])
		clusters[ci].Size = sizes[ci]
	}
	for i, ci := range assign {
		cl := &clusters[ci]
		row := d.Row(i)
		cl.Members = append(cl.Members, i)
		cl.Bounds.ExpandToInclude(row)
		for dim, v := range row {
			cl.Centroid[dim] += v
		}
	}
	for ci := range clusters {
		for dim := range clusters[ci].Centroid {
			clusters[ci].Centroid[dim] /= float64(sizes[ci])
		}
	}
	res := &Result{Clusters: clusters, Assignments: assign}
	res.Inertia = Inertia(d, clusters, assign)
	return &Quantization{Data: d, Result: res}, nil
}
