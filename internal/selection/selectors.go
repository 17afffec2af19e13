package selection

import (
	"fmt"
	"sort"

	"qens/internal/rng"
)

// Participant is one selected node plus the training directives
// attached to it.
type Participant struct {
	NodeID string
	// Rank is the selector's score (0 for selectors that do not
	// rank). Weighted Averaging (Eq. 7) uses these as λ weights.
	Rank float64
	// Clusters lists the cluster indices the node should train on;
	// nil means "train on the whole local dataset" (what the
	// baselines do — they have no notion of supporting clusters).
	Clusters []int
}

// Context supplies selector dependencies.
type Context struct {
	// RNG drives stochastic selectors (Random); required by them.
	RNG *rng.Source
	// Evaluate lets pre-test selectors (GameTheory) score the
	// leader's warm-up model on a node's local data; it returns the
	// node-local loss. Wired up by the federation package.
	Evaluate func(nodeID string) (loss float64, err error)
}

// Selector chooses participants for a query from the planner's
// candidate set: every advertised node's Eq. 2–4 ranking, computed
// once per (query, snapshot).
type Selector interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// SelectFrom returns the chosen participants in priority order.
	SelectFrom(cs *CandidateSet, ctx *Context) ([]Participant, error)
}

// QueryDriven is the paper's mechanism: rank nodes by Eq. 4 and keep
// either the top ℓ (TopL > 0) or everyone above ψ (Psi > 0); exactly
// one of the two must be set. Selected nodes train only on their
// supporting clusters (the §IV-A data selectivity).
type QueryDriven struct {
	// Epsilon is the ε support threshold of §III-C.
	Epsilon float64
	// TopL selects the ℓ best-ranked nodes when positive.
	TopL int
	// Psi selects every node with r_i >= ψ (Eq. 5) when positive.
	Psi float64
}

// Name implements Selector.
func (s QueryDriven) Name() string { return "query-driven" }

// Validate checks the TopL/Psi exclusivity contract.
func (s QueryDriven) Validate() error {
	if (s.TopL > 0) == (s.Psi > 0) {
		return fmt.Errorf("selection: query-driven needs exactly one of TopL (%d) or Psi (%v)", s.TopL, s.Psi)
	}
	return nil
}

// SelectFrom implements Selector.
func (s QueryDriven) SelectFrom(cs *CandidateSet, _ *Context) ([]Participant, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ranks, err := cs.AtEpsilon(s.Epsilon)
	if err != nil {
		return nil, err
	}
	var chosen []NodeRank
	if s.TopL > 0 {
		chosen = TopL(ranks, s.TopL)
	} else {
		chosen = AboveThreshold(ranks, s.Psi)
	}
	if len(chosen) == 0 {
		return nil, ErrNoCandidates
	}
	return participantsFromRanks(chosen), nil
}

// Random is the baseline of [6]: ℓ nodes drawn uniformly, training on
// their whole datasets.
type Random struct {
	// L is the number of nodes to draw.
	L int
}

// Name implements Selector.
func (s Random) Name() string { return "random" }

// SelectFrom implements Selector: it samples L candidates uniformly
// without replacement, one Context RNG draw per call.
func (s Random) SelectFrom(cs *CandidateSet, ctx *Context) ([]Participant, error) {
	if s.L < 1 {
		return nil, fmt.Errorf("selection: random selector needs L >= 1, got %d", s.L)
	}
	if ctx == nil || ctx.RNG == nil {
		return nil, fmt.Errorf("selection: random selector needs a Context RNG")
	}
	n := len(cs.Ranks)
	if n == 0 {
		return nil, ErrNoCandidates
	}
	idx := ctx.RNG.SampleWithoutReplacement(n, min(s.L, n))
	out := make([]Participant, len(idx))
	for i, j := range idx {
		out[i] = Participant{NodeID: cs.Ranks[j].NodeID, Rank: 1}
	}
	return out, nil
}

// AllNodes selects every advertised node, training on whole datasets —
// the "all-node selection mechanism" of Tables I/II.
type AllNodes struct{}

// Name implements Selector.
func (AllNodes) Name() string { return "all-nodes" }

// SelectFrom implements Selector.
func (AllNodes) SelectFrom(cs *CandidateSet, _ *Context) ([]Participant, error) {
	if len(cs.Ranks) == 0 {
		return nil, ErrNoCandidates
	}
	out := make([]Participant, len(cs.Ranks))
	for i, r := range cs.Ranks {
		out[i] = Participant{NodeID: r.NodeID, Rank: 1}
	}
	return out, nil
}

// GameTheory is the pre-test baseline of [7]: the leader first trains
// a warm-up model on its own local data, every node evaluates that
// model against its local dataset, and the leader selects the nodes
// where the model performs *worst* — the rationale being that those
// nodes hold data the model has not seen, making it more general.
// This requires one full evaluation round before selection, which is
// why the paper finds GT the slowest mechanism.
type GameTheory struct {
	// L is the number of worst-loss nodes to select.
	L int
}

// Name implements Selector.
func (s GameTheory) Name() string { return "game-theory" }

// SelectFrom implements Selector.
func (s GameTheory) SelectFrom(cs *CandidateSet, ctx *Context) ([]Participant, error) {
	if s.L < 1 {
		return nil, fmt.Errorf("selection: game-theory selector needs L >= 1, got %d", s.L)
	}
	if ctx == nil || ctx.Evaluate == nil {
		return nil, fmt.Errorf("selection: game-theory selector needs a Context evaluator")
	}
	if len(cs.Ranks) == 0 {
		return nil, ErrNoCandidates
	}
	type scored struct {
		id   string
		loss float64
	}
	scores := make([]scored, 0, len(cs.Ranks))
	for _, r := range cs.Ranks {
		loss, err := ctx.Evaluate(r.NodeID)
		if err != nil {
			return nil, fmt.Errorf("selection: game-theory pre-test on %s: %w", r.NodeID, err)
		}
		scores = append(scores, scored{id: r.NodeID, loss: loss})
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].loss != scores[j].loss {
			return scores[i].loss > scores[j].loss // worst first
		}
		return scores[i].id < scores[j].id
	})
	out := make([]Participant, min(s.L, len(scores)))
	for i := range out {
		out[i] = Participant{NodeID: scores[i].id, Rank: 1}
	}
	return out, nil
}
