// Package plan turns (query, registry snapshot) into an immutable
// execution Plan — the pure-CPU half of the leader's per-query work.
//
// The paper's leader does two very different things per query: CPU-only
// ranking over advertised cluster rectangles (Eqs. 2–4) and I/O-bound
// distributed training (§IV-B). This package isolates the first: a
// Planner reads a lock-free registry snapshot, scores every node's
// clusters with the batched flat-slice overlap kernel
// (geometry.OverlapRatesFlat), applies the selection policy, and emits
// a Plan carrying the chosen participants, the full per-node ranking,
// and the snapshot epoch it was derived from. Executors (see
// internal/federation) then run the I/O half against the plan.
//
// The query-driven fast path is allocation-free at steady state: Plans
// are pooled, and every slice a Plan hands out (overlaps, supporting
// sets, participants) is a sub-slice of per-Plan arenas sized to the
// snapshot. Callers therefore MUST treat a Plan as frozen and call
// Release exactly once when done — after copying out anything that
// must outlive it.
package plan

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/selection"
)

// DefaultEpsilon is the permissive support threshold used to rank for
// selectors that carry no intrinsic ε (Random, AllNodes, GameTheory, …):
// any overlap counts, so EXPLAIN output still shows which clusters
// touch the query even when the mechanism ignores the ranking. The
// region tier's root coordinator uses the same value so merged
// cross-region rankings match single-leader plans bit-for-bit.
const DefaultEpsilon = 1e-9

// Plan is one immutable planning outcome. All exported slices are
// either arena-backed (query-driven fast path) or selector-owned;
// either way they are frozen — do not mutate, and do not retain past
// Release.
type Plan struct {
	// Query is the workload rectangle the plan was built for.
	Query query.Query
	// Epoch is the registry snapshot epoch the plan derives from.
	// Everything cached against the plan (reuse entries) dies when the
	// epoch moves.
	Epoch uint64
	// Selector names the mechanism that chose the participants.
	Selector string
	// Epsilon is the ε the Rankings were thresholded at.
	Epsilon float64
	// Participants are the selected nodes in priority order, with
	// their supporting-cluster training directives.
	Participants []selection.Participant
	// Rankings holds the full per-node ranking in roster
	// (advertisement) order — the EXPLAIN view behind the selection.
	Rankings []selection.NodeRank

	snap    *registry.Snapshot
	planner *Planner

	// Arenas. overlapArena backs every NodeRank.Overlaps, supportArena
	// every NodeRank.Supporting and Participant.Clusters, rankArena
	// backs Rankings, partArena backs fast-path Participants, ranked
	// is the sort scratch, candArena the index walk's candidate roster
	// indices. They are pre-grown to the snapshot's totals before
	// filling, so mid-loop appends can never reallocate and invalidate
	// earlier sub-slices.
	overlapArena []float64
	supportArena []int
	rankArena    []selection.NodeRank
	partArena    []selection.Participant
	ranked       []selection.NodeRank
	candArena    []int

	// keyBuf is the persistent fingerprint arena Key() renders into;
	// key memoizes the rendered string for the plan's lifetime so
	// repeated Key() calls cost zero allocations. Cleared on Release,
	// kept across pooling.
	keyBuf []byte
	key    string
}

// Snapshot returns the registry snapshot the plan was derived from.
func (pl *Plan) Snapshot() *registry.Snapshot { return pl.snap }

// Key is the plan's selection fingerprint, shown by EXPLAIN:
// "e<epoch>|<selector>|node:clusters|…". Two queries with equal keys
// selected the same participants with the same training directives
// against the same advertisement epoch, but their executions are NOT
// interchangeable: the key leaves out the Eq. 4 ranks, which depend on
// the query rectangle and weight the Eq. 7 aggregation. So nothing
// coalesces or reuses results on it; the gateway coalesces on
// rectangle IoU.
//
// The first call renders into the plan's persistent key arena and pays
// one string copy (the key must outlive Release, so it cannot alias
// pooled memory); every later call returns the memoized string for
// free.
func (pl *Plan) Key() string {
	if pl.key != "" {
		return pl.key
	}
	b := pl.keyBuf[:0]
	b = append(b, 'e')
	b = strconv.AppendUint(b, pl.Epoch, 10)
	b = AppendSelectionKey(b, pl.Selector, pl.Participants)
	pl.keyBuf = b
	pl.key = string(b)
	return pl.key
}

// AppendSelectionKey appends "|<selector>|node:clusters|…" — the part of
// a plan fingerprint that names the selection — to a rendered epoch
// basis. The region tier keys its cross-region plans with it, so both
// topologies spell a selection the same way.
func AppendSelectionKey(b []byte, selector string, parts []selection.Participant) []byte {
	b = append(b, '|')
	b = append(b, selector...)
	for _, p := range parts {
		b = append(b, '|')
		b = append(b, p.NodeID...)
		if p.Clusters != nil {
			b = append(b, ':')
			for j, c := range p.Clusters {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(c), 10)
			}
		}
	}
	return b
}

// CopyParticipants returns a deep copy of the participant list that
// survives Release — what executors embed into long-lived Results.
func (pl *Plan) CopyParticipants() []selection.Participant {
	n := 0
	for _, p := range pl.Participants {
		n += len(p.Clusters)
	}
	clusters := make([]int, 0, n) // one backing array for every directive
	out := make([]selection.Participant, len(pl.Participants))
	for i, p := range pl.Participants {
		out[i] = selection.Participant{NodeID: p.NodeID, Rank: p.Rank}
		if len(p.Clusters) > 0 {
			at := len(clusters)
			clusters = append(clusters, p.Clusters...)
			out[i].Clusters = clusters[at:len(clusters):len(clusters)]
		}
	}
	return out
}

// Release returns the plan (and its arenas) to the planner's pool.
// Safe to call exactly once; the zero Plan and plans that already
// escaped a pool are no-ops.
func (pl *Plan) Release() {
	p := pl.planner
	if p == nil {
		return
	}
	pl.planner = nil
	pl.snap = nil
	pl.Query = query.Query{}
	pl.Participants = nil
	pl.Rankings = nil
	pl.key = ""
	p.pool.Put(pl)
}

// Planner builds Plans against a registry. It is safe for concurrent
// use; at steady state Plan is lock-free (one atomic snapshot load)
// and allocation-free for the query-driven mechanism.
type Planner struct {
	reg  *registry.Registry
	pool sync.Pool
}

// NewPlanner builds a planner over the registry.
func NewPlanner(reg *registry.Registry) *Planner {
	return &Planner{reg: reg}
}

// PlanOn plans the query against an explicit snapshot (tests and
// benchmarks pin snapshots; the serving path uses Plan).
func (p *Planner) PlanOn(snap *registry.Snapshot, q query.Query, sel selection.Selector, sctx *selection.Context) (*Plan, error) {
	return p.planOn(snap, q, sel, sctx, false)
}

// ExplainOn is PlanOn with the R-tree fast path disabled: every
// ranking row carries full per-dimension overlap detail, including the
// nodes the index would prove zero. The participant set is identical
// to PlanOn's — this exists for EXPLAIN surfaces, which show the
// complete fleet ranking.
func (p *Planner) ExplainOn(snap *registry.Snapshot, q query.Query, sel selection.Selector, sctx *selection.Context) (*Plan, error) {
	return p.planOn(snap, q, sel, sctx, true)
}

// EpsilonFor is the ε a selector's candidate set is ranked at: a
// query-driven selector's own ε, and DefaultEpsilon for the rest. The
// region tier's root coordinator resolves ε through it too, so
// cross-region rankings threshold exactly like single-leader plans.
func EpsilonFor(sel selection.Selector) float64 {
	if qd, ok := sel.(selection.QueryDriven); ok {
		return qd.Epsilon
	}
	return DefaultEpsilon
}

func (p *Planner) planOn(snap *registry.Snapshot, q query.Query, sel selection.Selector, sctx *selection.Context, brute bool) (*Plan, error) {
	if snap == nil {
		return nil, fmt.Errorf("plan: nil snapshot")
	}
	// Fast path: the paper's query-driven mechanism, fully arena-backed.
	if s, ok := sel.(selection.QueryDriven); ok {
		return p.planQueryDriven(snap, q, s, brute)
	}

	eps := EpsilonFor(sel)
	pl, err := p.rank(snap, q, eps, sel.Name())
	if err != nil {
		return nil, err
	}
	parts, err := sel.SelectFrom(&selection.CandidateSet{Query: q, Epsilon: eps, Ranks: pl.Rankings}, sctx)
	if err != nil {
		pl.Release()
		return nil, err
	}
	pl.Participants = parts
	return pl, nil
}

// Rank resolves a fresh-enough snapshot and computes the full Eq. 2–4
// ranking at the given ε without applying any selection policy. The
// returned rows own their memory (safe to retain, mutate or serialize
// after the call) and come with the snapshot epoch they derive from.
// This is the region-tier entry point: a regional leader ranks its own
// shard and ships the rows to the root coordinator, which merges them
// into a global candidate set — running the exact arena kernel the
// single-leader path uses keeps the cross-tier arithmetic bit-identical.
//
// With pruned set, for callers serving the query-driven policy, the
// ranking goes through the snapshot's spatial index: nodes the index
// proves cannot reach ε are returned as explicit zero rows (rank 0, no
// overlap detail) instead of being scored by the kernel. Participant
// selection over these rows is bit-identical to the brute ranking —
// zero-rank nodes are never selected — but the rows are NOT a full
// EXPLAIN surface (pruned rows carry nil Overlaps). A snapshot without
// an index is ranked by the brute kernel either way.
func (p *Planner) Rank(ctx context.Context, q query.Query, epsilon float64, pruned bool) ([]selection.NodeRank, uint64, error) {
	snap, err := p.reg.Snapshot(ctx)
	if err != nil {
		return nil, 0, err
	}
	return p.RankOn(snap, q, epsilon, pruned)
}

// RankOn is Rank against an explicit snapshot.
func (p *Planner) RankOn(snap *registry.Snapshot, q query.Query, epsilon float64, pruned bool) ([]selection.NodeRank, uint64, error) {
	if snap == nil {
		return nil, 0, fmt.Errorf("plan: nil snapshot")
	}
	var pl *Plan
	var err error
	if pruned && snap.Index != nil {
		pl, err = p.rankIndexed(snap, q, epsilon, "")
	} else {
		pl, err = p.rank(snap, q, epsilon, "")
	}
	if err != nil {
		return nil, 0, err
	}
	out := make([]selection.NodeRank, len(pl.Rankings))
	for i, r := range pl.Rankings {
		out[i] = r
		// Overlaps and Supporting are arena sub-slices that die with
		// Release; Sizes points into the immutable snapshot and is safe
		// to retain as-is.
		out[i].Overlaps = append([]float64(nil), r.Overlaps...)
		if r.Supporting != nil {
			out[i].Supporting = append([]int(nil), r.Supporting...)
		}
	}
	epoch := pl.Epoch
	pl.Release()
	return out, epoch, nil
}

// planQueryDriven is the allocation-free Eq. 2–4 pipeline. On indexed
// snapshots the ranking walks the R-tree first (see rankIndexed); the
// participant set is bit-identical either way.
func (p *Planner) planQueryDriven(snap *registry.Snapshot, q query.Query, s selection.QueryDriven, brute bool) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var (
		pl  *Plan
		err error
	)
	if snap.Index != nil && !brute {
		pl, err = p.rankIndexed(snap, q, s.Epsilon, s.Name())
	} else {
		pl, err = p.rank(snap, q, s.Epsilon, s.Name())
		if err == nil && p.reg != nil {
			p.reg.RecordPlanBrute()
		}
	}
	if err != nil {
		return nil, err
	}

	// Sort only the positive-rank rows (descending rank, node id
	// tie-break — identical to selection.SortByRank) in the pooled
	// scratch. Dropping zero-rank rows before the sort cannot change
	// the outcome — TopL stops at the first Rank <= 0 and ψ is always
	// > 0 — and keeps the sort proportional to the candidate count,
	// not the fleet size.
	pl.ranked = pl.ranked[:0]
	for i := range pl.rankArena {
		if pl.rankArena[i].Rank > 0 {
			pl.ranked = append(pl.ranked, pl.rankArena[i])
		}
	}
	slices.SortStableFunc(pl.ranked, compareRank)

	pl.partArena = pl.partArena[:0]
	if s.TopL > 0 {
		for _, r := range pl.ranked {
			if len(pl.partArena) == s.TopL || r.Rank <= 0 {
				break
			}
			pl.partArena = append(pl.partArena, selection.Participant{
				NodeID: r.NodeID, Rank: r.Rank, Clusters: r.Supporting,
			})
		}
	} else {
		psi := s.Psi
		if psi <= 0 {
			psi = 1e-12 // mirror selection.AboveThreshold's degradation
		}
		for _, r := range pl.ranked {
			if r.Rank >= psi {
				pl.partArena = append(pl.partArena, selection.Participant{
					NodeID: r.NodeID, Rank: r.Rank, Clusters: r.Supporting,
				})
			}
		}
	}
	if len(pl.partArena) == 0 {
		pl.Release()
		return nil, selection.ErrNoCandidates
	}
	pl.Participants = pl.partArena
	return pl, nil
}

// compareRank orders descending by rank, ascending by node id.
func compareRank(a, b selection.NodeRank) int {
	if a.Rank != b.Rank {
		if a.Rank > b.Rank {
			return -1
		}
		return 1
	}
	return strings.Compare(a.NodeID, b.NodeID)
}

// rank acquires a pooled Plan and fills its ranking arenas: per-node
// Eq. 2 overlaps via the flat kernel, supporting sets, Eq. 3
// potentials and Eq. 4 ranks at the given ε. The arithmetic (operation
// order included) matches selection.RankNodes exactly, so the outcome
// is bit-identical to the reference selection.NewCandidateSet.
func (p *Planner) rank(snap *registry.Snapshot, q query.Query, epsilon float64, selName string) (*Plan, error) {
	pl, err := p.acquire(snap, q, epsilon, selName)
	if err != nil {
		return nil, err
	}
	for gi := range snap.Nodes {
		pl.appendKernelRow(&snap.Nodes[gi], q, epsilon)
	}
	pl.Rankings = pl.rankArena
	return pl, nil
}

// rankIndexed is rank through the snapshot's R-tree: the index walk
// collects the roster indices whose covering rectangle overlaps the
// query in at least an ε fraction of dimensions — the only nodes Eq. 2
// can score at or above ε (per-cluster rates are per-dimension means,
// and every cluster nests inside its node's covering rectangle). The
// kernel runs on those candidates only; every pruned node is emitted
// as an explicit zero row (rank 0, potential 0, no supporting set —
// exactly the values the brute kernel computes for it, with nil
// Overlaps standing in for the all-below-ε detail the selection and
// EXPLAIN surfaces never read). Rankings keep full roster order, so
// downstream consumers see the same shape as the brute path.
func (p *Planner) rankIndexed(snap *registry.Snapshot, q query.Query, epsilon float64, selName string) (*Plan, error) {
	pl, err := p.acquire(snap, q, epsilon, selName)
	if err != nil {
		return nil, err
	}
	pl.candArena, err = snap.Index.AppendOverlapCandidates(q.Bounds, epsilon, pl.candArena[:0])
	if err != nil {
		// Dimensionality already validated by acquire; an index probe
		// failure means the snapshot is malformed.
		pl.Release()
		return nil, fmt.Errorf("plan: index probe: %w", err)
	}
	slices.Sort(pl.candArena) // tree order -> roster order for the merge walk

	ci := 0
	for gi := range snap.Nodes {
		g := &snap.Nodes[gi]
		if ci < len(pl.candArena) && pl.candArena[ci] == gi {
			ci++
			pl.appendKernelRow(g, q, epsilon)
			continue
		}
		pl.rankArena = append(pl.rankArena, selection.NodeRank{
			NodeID:       g.NodeID,
			TotalSamples: g.TotalSamples,
			Sizes:        g.Sizes,
		})
	}
	pl.Rankings = pl.rankArena
	if p.reg != nil {
		p.reg.RecordPlanPrune(len(snap.Nodes), len(snap.Nodes)-len(pl.candArena))
	}
	return pl, nil
}

// acquire checks the query against the snapshot, takes a pooled Plan
// and readies its arenas.
func (p *Planner) acquire(snap *registry.Snapshot, q query.Query, epsilon float64, selName string) (*Plan, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("selection: epsilon %v must be > 0", epsilon)
	}
	if q.Dims() != snap.Dims {
		return nil, fmt.Errorf("plan: query %s has %d dims, snapshot has %d", q.ID, q.Dims(), snap.Dims)
	}

	var pl *Plan
	if v := p.pool.Get(); v != nil {
		pl = v.(*Plan)
	} else {
		pl = &Plan{}
	}
	pl.planner = p
	pl.snap = snap
	pl.Query = q
	pl.Epoch = snap.Epoch
	pl.Selector = selName
	pl.Epsilon = epsilon

	// Pre-grow every arena to the snapshot's totals so the fill loops
	// never reallocate (which would leave earlier sub-slices pointing
	// into dead backing arrays).
	if cap(pl.overlapArena) < snap.TotalClusters {
		pl.overlapArena = make([]float64, 0, snap.TotalClusters)
	}
	if cap(pl.supportArena) < snap.TotalClusters {
		pl.supportArena = make([]int, 0, snap.TotalClusters)
	}
	if cap(pl.rankArena) < len(snap.Nodes) {
		pl.rankArena = make([]selection.NodeRank, 0, len(snap.Nodes))
	}
	if cap(pl.ranked) < len(snap.Nodes) {
		pl.ranked = make([]selection.NodeRank, 0, len(snap.Nodes))
	}
	if cap(pl.partArena) < len(snap.Nodes) {
		pl.partArena = make([]selection.Participant, 0, len(snap.Nodes))
	}
	if cap(pl.candArena) < len(snap.Nodes) {
		pl.candArena = make([]int, 0, len(snap.Nodes))
	}
	pl.overlapArena = pl.overlapArena[:0]
	pl.supportArena = pl.supportArena[:0]
	pl.rankArena = pl.rankArena[:0]
	pl.key = ""
	return pl, nil
}

// appendKernelRow scores one node with the flat overlap kernel and
// appends its Eq. 2–4 row to the rank arena.
func (pl *Plan) appendKernelRow(g *registry.NodeGeom, q query.Query, epsilon float64) {
	qmin, qmax := q.Bounds.Min, q.Bounds.Max
	oBase := len(pl.overlapArena)
	pl.overlapArena = geometry.OverlapRatesFlat(pl.overlapArena, qmin, qmax, g.Mins, g.Maxs)
	overlaps := pl.overlapArena[oBase:len(pl.overlapArena)]

	sBase := len(pl.supportArena)
	potential := 0.0
	supportSamples := 0
	for k, h := range overlaps {
		if h >= epsilon {
			pl.supportArena = append(pl.supportArena, k)
			potential += h
			supportSamples += g.Sizes[k]
		}
	}
	supporting := pl.supportArena[sBase:len(pl.supportArena)]
	if len(supporting) == 0 {
		supporting = nil // mirror RankNodes: no supporting clusters => nil
	}
	pl.rankArena = append(pl.rankArena, selection.NodeRank{
		NodeID:            g.NodeID,
		Overlaps:          overlaps,
		Supporting:        supporting,
		Potential:         potential,
		Rank:              potential * float64(len(supporting)) / float64(len(overlaps)),
		SupportingSamples: supportSamples,
		TotalSamples:      g.TotalSamples,
		Sizes:             g.Sizes,
	})
}
