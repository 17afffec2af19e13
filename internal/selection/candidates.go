package selection

import (
	"fmt"

	"qens/internal/cluster"
	"qens/internal/query"
)

// CandidateSet is the precomputed, query-specific ranking every
// Selector draws from. The planner (internal/plan)
// builds one per query from a registry snapshot — every node's Eq. 2
// overlaps, supporting set, potential and Eq. 4 rank at the set's ε —
// so selectors can decide without ever re-walking cluster rectangles.
// Ranks are in roster (advertisement) order, unsorted; selectors that
// need rank order sort a copy.
type CandidateSet struct {
	// Query is the workload rectangle the set was ranked against.
	Query query.Query
	// Epsilon is the ε support threshold the Ranks were computed at.
	Epsilon float64
	// Ranks holds one entry per advertised node, roster order.
	Ranks []NodeRank
}

// NewCandidateSet ranks the advertisements for one query. It is the
// reference constructor; the planner builds equivalent sets from its
// flat-slice snapshot without allocation.
func NewCandidateSet(q query.Query, summaries []cluster.NodeSummary, epsilon float64) (*CandidateSet, error) {
	ranks, err := RankNodes(q, summaries, epsilon)
	if err != nil {
		return nil, err
	}
	return &CandidateSet{Query: q, Epsilon: epsilon, Ranks: ranks}, nil
}

// AtEpsilon returns the ranking re-thresholded at a different ε. When
// epsilon matches the set's own, the stored ranks are returned as-is
// (callers must treat them as read-only); otherwise the supporting
// sets, potentials and ranks are recomputed from the stored per-cluster
// overlaps — bit-identical to a fresh RankNodes at that ε, because the
// accumulation order (ascending cluster index) and the final Eq. 4
// expression are the same.
func (cs *CandidateSet) AtEpsilon(epsilon float64) ([]NodeRank, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("selection: epsilon %v must be > 0", epsilon)
	}
	if epsilon == cs.Epsilon {
		return cs.Ranks, nil
	}
	out := make([]NodeRank, len(cs.Ranks))
	for i, r := range cs.Ranks {
		nr := NodeRank{
			NodeID:       r.NodeID,
			Overlaps:     r.Overlaps,
			Sizes:        r.Sizes,
			TotalSamples: r.TotalSamples,
		}
		for k, h := range r.Overlaps {
			if h >= epsilon {
				nr.Supporting = append(nr.Supporting, k)
				nr.Potential += h
				if k < len(r.Sizes) {
					nr.SupportingSamples += r.Sizes[k]
				}
			}
		}
		nr.Rank = nr.Potential * float64(len(nr.Supporting)) / float64(len(r.Overlaps))
		out[i] = nr
	}
	return out, nil
}

// Deterministic reports whether sel picks the same participants from
// the same candidates every time: no RNG draw, no per-invocation state,
// no pre-test. Only such selections may be served from (and stored
// into) a reuse cache (federation.Serve) — a random draw must stay in
// lock-step with the RNG stream. The gateway serves only these.
func Deterministic(sel Selector) bool {
	switch sel.(type) {
	case QueryDriven, AllNodes:
		return true
	default:
		return false
	}
}

// participantsFromRanks materializes chosen ranks in order, copying the
// supporting sets so callers own them.
func participantsFromRanks(chosen []NodeRank) []Participant {
	out := make([]Participant, len(chosen))
	for i, r := range chosen {
		out[i] = Participant{
			NodeID:   r.NodeID,
			Rank:     r.Rank,
			Clusters: append([]int(nil), r.Supporting...),
		}
	}
	return out
}
