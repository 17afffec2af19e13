package cluster

import (
	"fmt"

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

	// Assign each row to its grid cell.
	cellOf := func(row []float64) string {
		key := make([]byte, 0, dims*3)
		for dim := 0; dim < dims; dim++ {
			span := bounds.Width(dim)
			idx := 0
			if span > 0 {
				idx = int(float64(bucketsPerDim) * (row[dim] - bounds.Min[dim]) / span)
				if idx == bucketsPerDim { // max value lands in the last bucket
					idx = bucketsPerDim - 1
				}
			}
			key = append(key, byte(idx), '|')
		}
		return string(key)
	}
	members := map[string][]int{}
	var order []string
	for i := 0; i < d.Len(); i++ {
		k := cellOf(d.Row(i))
		if _, seen := members[k]; !seen {
			order = append(order, k)
		}
		members[k] = append(members[k], i)
	}

	clusters := make([]Cluster, len(order))
	assign := make([]int, d.Len())
	for ci, key := range order {
		idxs := members[key]
		cl := &clusters[ci]
		cl.Centroid = make([]float64, dims)
		for _, idx := range idxs {
			assign[idx] = ci
			row := d.Row(idx)
			cl.Bounds.ExpandToInclude(row)
			for dim, v := range row {
				cl.Centroid[dim] += v
			}
		}
		for dim := range cl.Centroid {
			cl.Centroid[dim] /= float64(len(idxs))
		}
		cl.Members = idxs
		cl.Size = len(idxs)
	}
	res := &Result{Clusters: clusters, Assignments: assign}
	res.Inertia = Inertia(d, clusters, assign)
	return &Quantization{Data: d, Result: res}, nil
}
