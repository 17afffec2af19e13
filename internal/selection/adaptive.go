package selection

import (
	"fmt"
	"sync"
)

// Adaptive implements the complete §II decision procedure as a single
// selector: on first use it runs the heterogeneity pre-test (the
// leader's warm-up model evaluated on every node, via Context.Evaluate)
// and commits to a mechanism — cheap Random selection when the
// participants are homogeneous ("selecting participants at random may
// be faster and produce the same results"), the full query-driven
// mechanism otherwise. The pre-test runs once per federation, not per
// query, so the steady-state cost is that of the chosen mechanism.
// The cached outcome is mutex-guarded, so one instance can serve
// concurrent queries.
type Adaptive struct {
	// Epsilon and TopL configure the query-driven branch; TopL also
	// sizes the random branch.
	Epsilon float64
	TopL    int
	// RatioThreshold is the pre-test max/min loss ratio separating
	// the regimes (0 uses the PreTest default).
	RatioThreshold float64

	mu     sync.Mutex
	regime *Regime // cached pre-test outcome
}

// Name implements Selector.
func (s *Adaptive) Name() string { return "adaptive" }

// Regime returns the cached pre-test classification, or ok=false if no
// selection has run yet.
func (s *Adaptive) Regime() (Regime, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.regime == nil {
		return 0, false
	}
	return *s.regime, true
}

// validate checks the static configuration.
func (s *Adaptive) validate() error {
	if s.TopL < 1 {
		return fmt.Errorf("selection: adaptive selector needs TopL >= 1, got %d", s.TopL)
	}
	if s.Epsilon <= 0 {
		return fmt.Errorf("selection: adaptive selector needs Epsilon > 0, got %v", s.Epsilon)
	}
	return nil
}

// regimeFor returns the committed regime, running the pre-test over
// the candidates on first use.
func (s *Adaptive) regimeFor(ranks []NodeRank, ctx *Context) (Regime, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.regime != nil {
		return *s.regime, nil
	}
	if ctx == nil || ctx.Evaluate == nil {
		return 0, fmt.Errorf("selection: adaptive selector needs a Context evaluator for the pre-test")
	}
	ids := make([]string, len(ranks))
	for i, r := range ranks {
		ids[i] = r.NodeID
	}
	res, err := PreTest(ids, ctx.Evaluate, s.RatioThreshold)
	if err != nil {
		return 0, fmt.Errorf("selection: adaptive pre-test: %w", err)
	}
	s.regime = &res.Regime
	return *s.regime, nil
}

// SelectFrom implements Selector.
func (s *Adaptive) SelectFrom(cs *CandidateSet, ctx *Context) ([]Participant, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	regime, err := s.regimeFor(cs.Ranks, ctx)
	if err != nil {
		return nil, err
	}
	if regime == RegimeHomogeneous {
		return Random{L: s.TopL}.SelectFrom(cs, ctx)
	}
	return QueryDriven{Epsilon: s.Epsilon, TopL: s.TopL}.SelectFrom(cs, ctx)
}

// SupportEpsilon implements EpsilonCarrier for the query-driven
// branch; the random branch ignores the candidate ranking entirely, so
// building the set at this ε is correct for both regimes.
func (s *Adaptive) SupportEpsilon() float64 { return s.Epsilon }
