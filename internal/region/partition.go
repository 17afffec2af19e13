package region

import (
	"fmt"
	"sort"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// Partition splits a fleet's advertisements into `regions` spatial
// shards, returning roster indices per shard. The split is the first
// pass of an STR pack over the per-node covering rectangles: nodes are
// ordered by covering-rect center along dimension 0 (node id breaks
// ties) and cut into contiguous runs of near-equal size, so each shard
// owns a spatially coherent slab of the data space and the routing
// R-tree over shard covering rects prunes effectively.
//
// The assignment is fully deterministic in the advertisements, so every
// process that sees the same advertisements (each cmd/qens-region over
// the same -addrs list) computes the same shards without coordination.
func Partition(summaries []cluster.NodeSummary, regions int) ([][]int, error) {
	if regions < 1 {
		return nil, fmt.Errorf("region: partition into %d regions", regions)
	}
	if len(summaries) < regions {
		return nil, fmt.Errorf("region: %d nodes cannot fill %d regions", len(summaries), regions)
	}
	type entry struct {
		idx    int
		center float64
		id     string
	}
	entries := make([]entry, len(summaries))
	for i, s := range summaries {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("region: node %s: %w", s.NodeID, err)
		}
		bound := CoveringRect(s)
		entries[i] = entry{idx: i, center: (bound.Min[0] + bound.Max[0]) / 2, id: s.NodeID}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].center != entries[j].center {
			return entries[i].center < entries[j].center
		}
		return entries[i].id < entries[j].id
	})
	out := make([][]int, regions)
	n := len(entries)
	for r := 0; r < regions; r++ {
		// Near-equal contiguous cuts: shard r takes [r*n/R, (r+1)*n/R).
		lo, hi := r*n/regions, (r+1)*n/regions
		shard := make([]int, 0, hi-lo)
		for _, e := range entries[lo:hi] {
			shard = append(shard, e.idx)
		}
		// Keep roster order inside the shard: the region's local roster
		// is then a subsequence of the global one.
		sort.Ints(shard)
		out[r] = shard
	}
	return out, nil
}

// CoveringRect returns the union of a summary's cluster bounds — the
// rectangle partitioning and routing reason about.
func CoveringRect(s cluster.NodeSummary) geometry.Rect {
	bound := s.Clusters[0].Bounds.Clone()
	for _, c := range s.Clusters[1:] {
		bound = bound.Union(c.Bounds)
	}
	return bound
}
