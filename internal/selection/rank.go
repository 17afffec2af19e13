// Package selection implements the paper's core contribution — the
// query-driven edge node selection mechanism of §III-C — together with
// the baselines it is evaluated against (§V-C): Random selection [6],
// Game-Theory selection [7] and all-node selection. Every selector is
// a stateless value.
//
// The leader only ever sees cluster.NodeSummary advertisements — the
// cluster bounding rectangles and counts — never raw node data, which
// is what keeps the mechanism's communication O(1) per node.
package selection

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"qens/internal/cluster"
	"qens/internal/geometry"
	"qens/internal/query"
)

// NodeRank carries everything the ranking computed about a node for
// one query.
type NodeRank struct {
	NodeID string
	// Overlaps holds h_ik (Eq. 2) for every advertised cluster k.
	Overlaps []float64
	// Supporting lists the indices of clusters with h_ik >= ε
	// (the K' supporting clusters).
	Supporting []int
	// Potential is p_i = Σ_k h_ik over supporting clusters (Eq. 3).
	Potential float64
	// Rank is r_i = p_i * K'/K (Eq. 4).
	Rank float64
	// SupportingSamples is the number of raw samples inside the
	// supporting clusters, used by the Fig. 9 data accounting.
	SupportingSamples int
	// TotalSamples is the node's |D_i|.
	TotalSamples int
	// Sizes holds the advertised member count of every cluster,
	// index-aligned with Overlaps. Candidate-set consumers use it to
	// re-threshold the ranking at a different ε without going back to
	// the raw summaries.
	Sizes []int
}

// RankNodes computes the paper's ranking for every advertised node:
// per-cluster overlap rates (Eq. 2), the supporting-cluster potential
// (Eq. 3) and the final rank (Eq. 4). epsilon is the paper's ε
// support threshold (> 0).
func RankNodes(q query.Query, summaries []cluster.NodeSummary, epsilon float64) ([]NodeRank, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("selection: epsilon %v must be > 0", epsilon)
	}
	ranks := make([]NodeRank, 0, len(summaries))
	for _, s := range summaries {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("selection: node %s: %w", s.NodeID, err)
		}
		r := NodeRank{NodeID: s.NodeID, TotalSamples: s.TotalSamples}
		k := len(s.Clusters)
		r.Overlaps = make([]float64, k)
		r.Sizes = make([]int, k)
		for i, c := range s.Clusters {
			r.Sizes[i] = c.Size
			if c.Bounds.Dims() != q.Dims() {
				return nil, fmt.Errorf("selection: node %s cluster %d has %d dims, query has %d",
					s.NodeID, i, c.Bounds.Dims(), q.Dims())
			}
			h := geometry.OverlapRate(q.Bounds, c.Bounds)
			r.Overlaps[i] = h
			if h >= epsilon {
				r.Supporting = append(r.Supporting, i)
				r.Potential += h
				r.SupportingSamples += c.Size
			}
		}
		r.Rank = r.Potential * float64(len(r.Supporting)) / float64(k)
		ranks = append(ranks, r)
	}
	return ranks, nil
}

// SortByRank orders ranks descending by Rank, breaking ties by node id
// for determinism.
func SortByRank(ranks []NodeRank) {
	sort.SliceStable(ranks, func(i, j int) bool {
		if ranks[i].Rank != ranks[j].Rank {
			return ranks[i].Rank > ranks[j].Rank
		}
		return ranks[i].NodeID < ranks[j].NodeID
	})
}

// TopL returns the ℓ highest-ranked nodes with positive rank. Fewer
// may be returned when not enough nodes have any supporting cluster.
func TopL(ranks []NodeRank, l int) []NodeRank {
	if l < 1 {
		return nil
	}
	sorted := append([]NodeRank(nil), ranks...)
	SortByRank(sorted)
	out := make([]NodeRank, 0, l)
	for _, r := range sorted {
		if len(out) == l {
			break
		}
		if r.Rank <= 0 {
			break // sorted descending: nothing useful follows
		}
		out = append(out, r)
	}
	return out
}

// AboveThreshold implements Eq. 5: every node with r_i >= ψ.
func AboveThreshold(ranks []NodeRank, psi float64) []NodeRank {
	if psi <= 0 {
		psi = 1e-12 // a non-positive ψ degrades to "any support at all"
	}
	sorted := append([]NodeRank(nil), ranks...)
	SortByRank(sorted)
	out := make([]NodeRank, 0, len(sorted))
	for _, r := range sorted {
		if r.Rank >= psi {
			out = append(out, r)
		}
	}
	return out
}

// ErrNoCandidates reports that no node satisfied the selection policy
// for a query.
var ErrNoCandidates = errors.New("selection: no node supports the query")

// Explain renders a human-readable account of the query-driven ranking
// for one query: every node's per-cluster overlaps, supporting set,
// potential and rank — the leader-side view behind a selection
// decision.
func Explain(q query.Query, summaries []cluster.NodeSummary, epsilon float64) (string, error) {
	ranks, err := RankNodes(q, summaries, epsilon)
	if err != nil {
		return "", err
	}
	SortByRank(ranks)
	var b strings.Builder
	fmt.Fprintf(&b, "query %s: %v (ε=%.2f)\n", q.ID, q.Bounds, epsilon)
	for _, r := range ranks {
		fmt.Fprintf(&b, "%-10s rank=%.4f potential=%.4f supporting=%d/%d samples=%d/%d\n",
			r.NodeID, r.Rank, r.Potential, len(r.Supporting), len(r.Overlaps),
			r.SupportingSamples, r.TotalSamples)
		for k, h := range r.Overlaps {
			marker := " "
			for _, sk := range r.Supporting {
				if sk == k {
					marker = "*"
					break
				}
			}
			fmt.Fprintf(&b, "  %s cluster %d h=%.4f\n", marker, k, h)
		}
	}
	return b.String(), nil
}
