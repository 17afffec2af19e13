package experiments

import (
	"fmt"
	"strings"

	"qens/internal/geometry"
	"qens/internal/selection"
)

// Figure6Cluster describes one cluster's relation to the query.
type Figure6Cluster struct {
	Bounds     geometry.Rect
	Size       int
	Overlap    float64
	Supporting bool
}

// Figure6Node is one node's view in the Fig. 6 rendering.
type Figure6Node struct {
	NodeID string
	Bounds geometry.Rect
	// Clusters are the node's K quantization cells.
	Clusters []Figure6Cluster
	// NeededSamples counts samples in supporting clusters (Fig. 6b,
	// "the actual data required by the query").
	NeededSamples int
	// TotalSamples is the node's whole dataset (Fig. 6a).
	TotalSamples int
}

// Figure6Result contrasts a query's data requirements against the
// available data spaces of a few nodes.
type Figure6Result struct {
	Query geometry.Rect
	Nodes []Figure6Node
}

// String renders the per-node needed-vs-available contrast.
func (r Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — query %v projected onto node data spaces\n", r.Query)
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "%s: needs %d of %d samples (%.1f%%) across %d/%d supporting clusters\n",
			n.NodeID, n.NeededSamples, n.TotalSamples,
			100*float64(n.NeededSamples)/float64(max(1, n.TotalSamples)),
			countSupporting(n.Clusters), len(n.Clusters))
		for i, c := range n.Clusters {
			marker := " "
			if c.Supporting {
				marker = "*"
			}
			fmt.Fprintf(&b, "  %s cluster %d: %v  h=%.3f size=%d\n", marker, i, c.Bounds, c.Overlap, c.Size)
		}
	}
	return b.String()
}

func countSupporting(cs []Figure6Cluster) int {
	n := 0
	for _, c := range cs {
		if c.Supporting {
			n++
		}
	}
	return n
}

// Figure6 reproduces the Fig. 6 contrast for the first query of the
// workload over the first three nodes (the paper plots 3 nodes).
func Figure6(opts Options) (*Figure6Result, error) {
	opts = opts.WithDefaults()
	if opts.Queries < 1 {
		opts.Queries = 1
	}
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	q := env.Queries[0]
	summaries, err := env.Fleet.Leader.Summaries()
	if err != nil {
		return nil, err
	}
	ranks, err := selection.RankNodes(q, summaries, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	nNodes := 3
	if nNodes > len(summaries) {
		nNodes = len(summaries)
	}
	out := &Figure6Result{Query: q.Bounds}
	for i := 0; i < nNodes; i++ {
		s := summaries[i]
		r := ranks[i]
		node := Figure6Node{NodeID: s.NodeID, TotalSamples: s.TotalSamples}
		bounds := s.Clusters[0].Bounds.Clone()
		supporting := map[int]bool{}
		for _, k := range r.Supporting {
			supporting[k] = true
		}
		for k, c := range s.Clusters {
			bounds = bounds.Union(c.Bounds)
			fc := Figure6Cluster{
				Bounds:     c.Bounds,
				Size:       c.Size,
				Overlap:    r.Overlaps[k],
				Supporting: supporting[k],
			}
			if fc.Supporting {
				node.NeededSamples += c.Size
			}
			node.Clusters = append(node.Clusters, fc)
		}
		node.Bounds = bounds
		out.Nodes = append(out.Nodes, node)
	}
	return out, nil
}
