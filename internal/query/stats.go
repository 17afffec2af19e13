package query

import (
	"fmt"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// Leader-side selectivity estimation. The leader never sees raw data,
// but the cluster summaries let it estimate how many samples a query
// will touch before committing to a selection — the estimate assumes
// samples are uniform within each cluster rectangle, the standard
// R-tree-style selectivity model.

// SelectivityEstimate is the leader's pre-execution estimate for one
// query.
type SelectivityEstimate struct {
	// Samples is the estimated number of samples inside the query
	// across all advertised nodes.
	Samples float64
	// Fraction is Samples over the federation's total samples.
	Fraction float64
	// PerNode maps node id to its estimated in-query samples.
	PerNode map[string]float64
}

// EstimateSelectivity predicts how many samples fall inside the query
// from cluster summaries alone: each cluster contributes
// size × vol(query ∩ cluster)/vol(cluster), the uniform-density
// assumption. Degenerate clusters contribute their full size when they
// intersect the query.
func EstimateSelectivity(q Query, summaries []cluster.NodeSummary) (SelectivityEstimate, error) {
	est := SelectivityEstimate{PerNode: make(map[string]float64, len(summaries))}
	total := 0
	for _, s := range summaries {
		if err := s.Validate(); err != nil {
			return SelectivityEstimate{}, fmt.Errorf("query: node %s: %w", s.NodeID, err)
		}
		node := 0.0
		for i, c := range s.Clusters {
			if c.Bounds.Dims() != q.Dims() {
				return SelectivityEstimate{}, fmt.Errorf("query: node %s cluster %d dims %d != query %d",
					s.NodeID, i, c.Bounds.Dims(), q.Dims())
			}
			node += float64(c.Size) * geometry.CoveredFraction(q.Bounds, c.Bounds)
		}
		est.PerNode[s.NodeID] = node
		est.Samples += node
		total += s.TotalSamples
	}
	if total > 0 {
		est.Fraction = est.Samples / float64(total)
	}
	return est, nil
}
