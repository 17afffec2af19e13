// Package registry is the leader's versioned, epoch-stamped store of
// fleet cluster advertisements: a copy-on-write snapshot published
// through an atomic.Pointer, so the query planning hot path
// (internal/plan) reads advertisements lock-free while refreshes happen
// off to the side.
//
// Freshness is one mechanism. Every pull is the same epoch-conditional
// fetch: the registry tells the fleet which per-node summary epochs it
// holds and each node answers "unchanged" or ships its body. The first
// refresh, and the one after Invalidate, know nothing, so every node
// ships its body; InvalidateNode forgets one node's epoch. A pull runs
// when Snapshot finds an invalidation the current snapshot does not
// cover, or on the background tick (StartRefresh), which is
// anti-entropy: over an unchanged fleet it moves N "unchanged" markers
// and keeps the epoch. Node pushes (ApplyPush) ride on top, fenced by
// the same per-node epochs. Consumers that cache derived state (warm-up
// models, reuse-cache entries, prepared plans) key it to the snapshot
// epoch, so everything derived from a dead snapshot dies with it.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// NodeEpoch pairs a roster node with the summary epoch the registry
// already holds for it. A zero Epoch demands a full summary (forced
// re-fetch after InvalidateNode, or an un-versioned advertisement).
type NodeEpoch struct {
	NodeID string
	Epoch  uint64
}

// Delta is one node's answer to an epoch-conditional summary fetch:
// either Unchanged (the node's advertisement still carries the known
// epoch, no summary body moved) or a full refreshed Summary.
type Delta struct {
	NodeID    string
	Unchanged bool
	Summary   cluster.NodeSummary // valid only when !Unchanged
}

// FetchFunc collects the fleet's advertisements: one Delta per current
// roster node, in stable roster order. known carries the per-node
// epochs the registry holds; nil means it holds nothing (first refresh,
// or the refresh after Invalidate) and every node must ship its body,
// as must a listed node whose Epoch is 0. Refreshes are serialized, so
// it is never called concurrently with itself.
type FetchFunc func(ctx context.Context, known []NodeEpoch) ([]Delta, error)

// NodeGeom is one node's advertisement re-packed for the batch overlap
// kernel: all cluster rectangles in flat min/max slices (rect-major,
// see geometry.FlattenRects) plus the per-cluster sizes the ranking
// needs. It is immutable after snapshot construction.
type NodeGeom struct {
	NodeID string
	// Mins, Maxs are the flattened cluster bounds, len K*Dims.
	Mins, Maxs []float64
	// Sizes holds the per-cluster member counts.
	Sizes []int
	// TotalSamples is the node's |D_i|.
	TotalSamples int
	// SummaryEpoch is the node-reported advertisement version, bumped
	// by the node on requantization and carried by its summary and by
	// every train response body. The executor compares it against
	// training responses to detect drift.
	SummaryEpoch uint64
}

// K returns the node's advertised cluster count.
func (g NodeGeom) K() int {
	if len(g.Sizes) > 0 {
		return len(g.Sizes)
	}
	return 0
}

// Snapshot is one immutable, epoch-stamped view of every node's
// advertisement. All slices (including the re-packed geometry) must be
// treated as read-only; planners hand out sub-slices of their own
// arenas, never of the snapshot.
type Snapshot struct {
	// Epoch is the monotonically increasing publish counter (first
	// snapshot has epoch 1).
	Epoch uint64
	// Summaries are the validated advertisements in roster order.
	Summaries []cluster.NodeSummary
	// Nodes is the flat-slice re-pack of Summaries, index-aligned.
	Nodes []NodeGeom
	// Dims is the shared feature-space dimensionality.
	Dims int
	// TotalClusters is the sum of every node's K (arena sizing).
	TotalClusters int
	// TotalSamples is the fleet-wide Σ|D_i|.
	TotalSamples int
	// NodeBounds holds each node's covering rectangle (the union of
	// its advertised cluster bounds), index-aligned with Nodes.
	NodeBounds []geometry.Rect
	// Index is an immutable R-tree over NodeBounds, built once per
	// refresh; entry IDs are roster indices into Nodes. Region routing
	// and planner pruning probe it to skip nodes whose advertised
	// space cannot intersect a query rectangle. Like every other
	// snapshot field it dies with the epoch: a refresh publishes a
	// freshly built index.
	Index *geometry.RTree

	// byID maps each NodeID to its roster index in Nodes. It is built
	// once per roster: a patched snapshot shares its predecessor's.
	byID map[string]int

	// covers is the invalidation generation this snapshot answers: the
	// registry's invalidation count read before the fetch that built it
	// started (a push-built snapshot inherits its predecessor's). The
	// snapshot is stale while the count has moved past it.
	covers int64
}

// Node returns the named node's re-packed advertisement (nil when the
// node is not in the snapshot).
func (s *Snapshot) Node(nodeID string) *NodeGeom {
	i, ok := s.byID[nodeID]
	if !ok {
		return nil
	}
	return &s.Nodes[i]
}

// NodeSummaryEpoch returns the node-reported advertisement version
// recorded in this snapshot (0 when unknown).
func (s *Snapshot) NodeSummaryEpoch(nodeID string) uint64 {
	if g := s.Node(nodeID); g != nil {
		return g.SummaryEpoch
	}
	return 0
}

// rebuildChurn is the changed-node fraction above which a refresh
// rebuilds the R-tree from scratch instead of patching it in place
// (patching preserves the stale leaf layout, which degrades packing
// quality as rectangles drift).
const rebuildChurn = 0.25

// Registry is the versioned summary store. All read paths (Current,
// Snapshot at steady state, Epoch, ReuseEpoch) are lock-free; only
// refreshes serialize on an internal mutex.
type Registry struct {
	fetch FetchFunc

	cur   atomic.Pointer[Snapshot]
	epoch atomic.Uint64 // last published epoch

	refreshMu sync.Mutex // serializes fetch+publish

	// invalidations counts Invalidate/InvalidateNode calls and doubles
	// as the staleness generation: the current snapshot is stale while
	// this has moved past Snapshot.covers. forceMu guards what each
	// call asked for, stamped with its generation so a refresh forgets
	// only the requests made before its fetch started: forceAll is the
	// last Invalidate (the next refresh tells the fleet nothing, so
	// every body ships), forceNode the per-node stale-delta escape
	// hatch (the next refresh sends a zero known-epoch for the node
	// even when its advertised epoch looks current).
	invalidations atomic.Int64
	forceMu       sync.Mutex
	forceAll      int64
	forceNode     map[string]int64

	refreshes atomic.Int64
	fetchedAt atomic.Pointer[time.Time] // last successful pull

	fullRefreshes  atomic.Int64
	deltaRefreshes atomic.Int64
	nodesReused    atomic.Int64
	nodesRefetched atomic.Int64
	deltaBytes     atomic.Int64
	fullBytes      atomic.Int64
	indexPatches   atomic.Int64
	indexRebuilds  atomic.Int64

	// Push-ingestion accounting (see ApplyPush in push.go).
	pushApplied        atomic.Int64
	pushDroppedStale   atomic.Int64
	pushDroppedUnknown atomic.Int64
	pushBytes          atomic.Int64

	// Planner-side index counters, accumulated through RecordPlanPrune /
	// RecordPlanBrute so index effectiveness surfaces in Stats next to
	// the refresh accounting it depends on.
	indexedPlans atomic.Int64
	brutePlans   atomic.Int64
	nodesRanked  atomic.Int64
	nodesPruned  atomic.Int64

	bgMu   sync.Mutex
	bgStop chan struct{}
	bgDone chan struct{}
}

// New builds a registry over the given fetcher. No fetch happens until
// the first Snapshot (or Refresh) call.
func New(fetch FetchFunc) (*Registry, error) {
	if fetch == nil {
		return nil, errors.New("registry: nil fetch func")
	}
	return &Registry{fetch: fetch, forceNode: make(map[string]int64)}, nil
}

// Current returns the latest published snapshot without fetching;
// ok is false before the first successful refresh. The snapshot may be
// stale — callers that need freshness use Snapshot.
func (r *Registry) Current() (*Snapshot, bool) {
	s := r.cur.Load()
	return s, s != nil
}

// Epoch returns the latest published epoch (0 before the first
// refresh). Lock-free.
func (r *Registry) Epoch() uint64 { return r.epoch.Load() }

// stale reports whether an invalidation arrived that s does not cover
// (a nil s covers nothing). It is the one staleness predicate: Snapshot,
// ReuseEpoch, Stats and the refresh single-flight all read it.
func (r *Registry) stale(s *Snapshot) bool {
	var covers int64
	if s != nil {
		covers = s.covers
	}
	return r.invalidations.Load() > covers
}

// ReuseEpoch is the epoch derived caches should key their entries on:
// the published epoch, advanced by one while the current snapshot is
// stale. During that window a lookup keyed on ReuseEpoch misses entries
// derived from the dying snapshot, and matches entries produced by
// executions that (by calling Snapshot) already planned against the
// refreshed one — which will publish exactly that epoch. Lock-free.
func (r *Registry) ReuseEpoch() uint64 {
	e := r.epoch.Load()
	if s := r.cur.Load(); s == nil || r.stale(s) {
		e++
	}
	return e
}

// Snapshot returns a fresh-enough snapshot, fetching the fleet when
// none exists or an invalidation arrived since the current one was
// fetched. The steady-state path is two atomic loads — no mutex.
func (r *Registry) Snapshot(ctx context.Context) (*Snapshot, error) {
	if s := r.cur.Load(); s != nil && !r.stale(s) {
		return s, nil
	}
	return r.Refresh(ctx)
}

// Refresh pulls the fleet and, when anything moved, publishes a new
// snapshot with the next epoch. Concurrent refreshes are serialized; a
// caller that lost the race returns the winner's snapshot instead of
// re-polling the fleet. A pull over an unchanged fleet (every node
// answered "unchanged", nothing was forced) returns the current
// snapshot at its epoch, so the anti-entropy tick leaves every
// epoch-keyed cache alone.
//
// The pull is epoch-conditional against prev: unchanged nodes reuse
// their validated summary and re-packed geometry, changed nodes are
// re-validated, and the R-tree is patched in place below the churn
// threshold (rebuilt above it, or whenever the roster itself changed).
// With no prev — or after Invalidate, which makes the held epochs
// suspect — known is nil and the snapshot is built from scratch.
func (r *Registry) Refresh(ctx context.Context) (*Snapshot, error) {
	before := r.epoch.Load()
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	prev := r.cur.Load()
	// Someone else published while we waited for the lock: if the
	// result is fresh, use it.
	if prev != nil && prev.Epoch > before && !r.stale(prev) {
		return prev, nil
	}
	// The generation is read before the fetch starts, so an
	// invalidation landing while it is on the wire stays uncovered and
	// the next Snapshot call pulls again.
	gen := r.invalidations.Load()
	r.forceMu.Lock()
	if prev != nil && r.forceAll > prev.covers {
		prev = nil // an uncovered Invalidate: hold nothing, reuse nothing
	}
	forced := make(map[string]bool, len(r.forceNode))
	for id := range r.forceNode {
		forced[id] = true
	}
	r.forceMu.Unlock()

	var (
		known   []NodeEpoch
		prevIdx map[string]int
	)
	if prev != nil {
		known = make([]NodeEpoch, len(prev.Nodes))
		prevIdx = make(map[string]int, len(prev.Nodes))
		for i := range prev.Nodes {
			known[i] = NodeEpoch{NodeID: prev.Nodes[i].NodeID, Epoch: prev.Nodes[i].SummaryEpoch}
			if forced[known[i].NodeID] {
				known[i].Epoch = 0
			}
			prevIdx[known[i].NodeID] = i
		}
	}
	deltas, err := r.fetch(ctx, known)
	if err != nil {
		return nil, err
	}

	summaries := make([]cluster.NodeSummary, len(deltas))
	changed := make([]int, 0, len(deltas))
	rosterSame := prev != nil && len(deltas) == len(prev.Nodes)
	var bytes int64
	for i, d := range deltas {
		if rosterSame && d.NodeID != prev.Nodes[i].NodeID {
			rosterSame = false
		}
		j, held := prevIdx[d.NodeID]
		if d.Unchanged {
			if !held {
				return nil, fmt.Errorf("registry: delta marks unknown node %q unchanged", d.NodeID)
			}
			if forced[d.NodeID] {
				return nil, fmt.Errorf("registry: node %q answered a forced re-fetch with unchanged", d.NodeID)
			}
		}
		// Epoch fencing against the push path: a fetch issued before a
		// push landed can deliver an advertisement older than the one
		// the snapshot already holds. Keeping the recorded summary
		// (instead of regressing to the fetched one) makes push/pull
		// interleaving commutative. Forced nodes are exempt —
		// InvalidateNode means the recorded epoch itself is suspect.
		fenced := held && !forced[d.NodeID] &&
			d.Summary.Epoch != 0 && d.Summary.Epoch < prev.Nodes[j].SummaryEpoch
		if d.Unchanged || fenced {
			summaries[i] = prev.Summaries[j]
			continue
		}
		summaries[i] = d.Summary
		changed = append(changed, i)
		bytes += summaryWireBytes(&summaries[i])
	}

	snap := prev
	switch {
	case rosterSame && len(changed) == 0 && len(forced) == 0:
		// Nothing moved: prev stays published at its epoch.
	case rosterSame && float64(len(changed)) <= rebuildChurn*float64(len(deltas)):
		if snap, err = buildSnapshotPatched(prev, summaries, changed); err == nil {
			r.indexPatches.Add(1)
		}
	default:
		if snap, err = buildSnapshot(summaries); err == nil {
			r.indexRebuilds.Add(1)
		}
	}
	if err != nil {
		return nil, err
	}
	if prev == nil {
		r.fullBytes.Add(bytes)
		r.fullRefreshes.Add(1)
	} else {
		r.deltaBytes.Add(bytes + int64(len(deltas))*deltaProbeBytes)
		r.deltaRefreshes.Add(1)
		r.nodesReused.Add(int64(len(deltas) - len(changed)))
		r.nodesRefetched.Add(int64(len(changed)))
	}
	r.refreshes.Add(1)
	now := time.Now()
	r.fetchedAt.Store(&now)
	if snap == prev {
		return prev, nil
	}
	snap.covers = gen
	snap.Epoch = r.epoch.Add(1)
	r.cur.Store(snap)
	// Only now that the snapshot is published may the forced set
	// shrink; requests made during the fetch stay for the next round.
	r.forceMu.Lock()
	for id, g := range r.forceNode {
		if g <= gen {
			delete(r.forceNode, id)
		}
	}
	r.forceMu.Unlock()
	return snap, nil
}

// Invalidate marks the current snapshot stale: the next Snapshot call
// (or background refresh tick) re-fetches every node's body and bumps
// the epoch — an explicit invalidation means the epochs the conditional
// fetch would trust are themselves suspect. Idempotent.
func (r *Registry) Invalidate() {
	r.forceMu.Lock()
	r.forceAll = r.invalidations.Add(1)
	r.forceMu.Unlock()
}

// InvalidateNode marks one node's advertisement suspect: the current
// snapshot goes stale and the next refresh re-fetches that node with a
// zero known-epoch, bypassing the "unchanged" fast path even when the
// node's advertised epoch looks current. This is the stale-delta escape
// hatch: a node that changed content without (visibly) bumping its
// epoch would otherwise be served from the reused summary forever.
func (r *Registry) InvalidateNode(nodeID string) {
	r.forceMu.Lock()
	r.forceNode[nodeID] = r.invalidations.Add(1)
	r.forceMu.Unlock()
}

// SignalNodeEpoch reports a node-side advertisement version observed
// out-of-band (e.g. echoed on a training response). When it is newer
// than what the current snapshot recorded for that node, that node is
// invalidated (see InvalidateNode) so the next query re-fetches it in
// full. It returns true when drift was detected.
func (r *Registry) SignalNodeEpoch(nodeID string, epoch uint64) bool {
	if epoch == 0 {
		return false
	}
	s := r.cur.Load()
	if s == nil {
		return false
	}
	if g := s.Node(nodeID); g == nil || epoch <= g.SummaryEpoch {
		return false
	}
	r.InvalidateNode(nodeID)
	return true
}

// Stats is a point-in-time account of registry activity. The refresh
// byte counters are wire-size estimates (see summaryWireBytes), kept
// here rather than in transport so simulated fleets report them too.
type Stats struct {
	Epoch         uint64    `json:"epoch"`
	Stale         bool      `json:"stale"`
	Refreshes     int64     `json:"refreshes"`
	Invalidations int64     `json:"invalidations"`
	FetchedAt     time.Time `json:"fetched_at"`
	Nodes         int       `json:"nodes"`

	// Pull accounting: a refresh that told the fleet nothing (first
	// fetch, or after Invalidate) counts as full, every other as delta.
	FullRefreshes  int64 `json:"full_refreshes"`
	DeltaRefreshes int64 `json:"delta_refreshes"`
	NodesReused    int64 `json:"delta_nodes_reused"`
	NodesRefetched int64 `json:"delta_nodes_refetched"`
	DeltaBytes     int64 `json:"delta_refresh_bytes"`
	FullBytes      int64 `json:"full_refresh_bytes"`
	IndexPatches   int64 `json:"index_patches"`
	IndexRebuilds  int64 `json:"index_rebuilds"`

	// Push-ingestion accounting.
	PushApplied        int64 `json:"push_applied"`
	PushDroppedStale   int64 `json:"push_dropped_stale"`
	PushDroppedUnknown int64 `json:"push_dropped_unknown"`
	PushBytes          int64 `json:"push_bytes"`

	// Planner index accounting (see RecordPlanPrune): how many
	// query-driven plans walked the R-tree and how many roster rows the
	// walk spared the Eq. 2–4 kernel.
	IndexedPlans int64 `json:"indexed_plans"`
	BrutePlans   int64 `json:"brute_plans"`
	NodesRanked  int64 `json:"nodes_ranked"`
	NodesPruned  int64 `json:"nodes_pruned"`
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	st := Stats{
		Epoch:          r.epoch.Load(),
		Stale:          r.stale(r.cur.Load()),
		Refreshes:      r.refreshes.Load(),
		Invalidations:  r.invalidations.Load(),
		FullRefreshes:  r.fullRefreshes.Load(),
		DeltaRefreshes: r.deltaRefreshes.Load(),
		NodesReused:    r.nodesReused.Load(),
		NodesRefetched: r.nodesRefetched.Load(),
		DeltaBytes:     r.deltaBytes.Load(),
		FullBytes:      r.fullBytes.Load(),
		IndexPatches:   r.indexPatches.Load(),
		IndexRebuilds:  r.indexRebuilds.Load(),

		PushApplied:        r.pushApplied.Load(),
		PushDroppedStale:   r.pushDroppedStale.Load(),
		PushDroppedUnknown: r.pushDroppedUnknown.Load(),
		PushBytes:          r.pushBytes.Load(),
		IndexedPlans:       r.indexedPlans.Load(),
		BrutePlans:         r.brutePlans.Load(),
		NodesRanked:        r.nodesRanked.Load(),
		NodesPruned:        r.nodesPruned.Load(),
	}
	if s := r.cur.Load(); s != nil {
		st.Nodes = len(s.Nodes)
	}
	if t := r.fetchedAt.Load(); t != nil {
		st.FetchedAt = *t
	}
	return st
}

// RecordPlanPrune accumulates one indexed plan's pruning outcome:
// total roster rows considered and how many the index walk excluded
// before the overlap kernel. Atomics only — safe on the planner's
// allocation-free fast path.
func (r *Registry) RecordPlanPrune(total, pruned int) {
	r.indexedPlans.Add(1)
	r.nodesRanked.Add(int64(total))
	r.nodesPruned.Add(int64(pruned))
}

// RecordPlanBrute counts one query-driven plan that fell back to the
// brute kernel (snapshot without an index).
func (r *Registry) RecordPlanBrute() {
	r.brutePlans.Add(1)
}

// StartRefresh launches the anti-entropy goroutine: one Refresh every
// interval, off the query path. Stop (or a second StartRefresh)
// terminates it. Refresh errors are swallowed: the previous snapshot
// keeps serving and the next tick retries.
func (r *Registry) StartRefresh(interval time.Duration) {
	if interval <= 0 {
		return
	}
	r.bgMu.Lock()
	defer r.bgMu.Unlock()
	r.stopLocked()
	stop := make(chan struct{})
	done := make(chan struct{})
	r.bgStop, r.bgDone = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				_, _ = r.Refresh(ctx)
				cancel()
			}
		}
	}()
}

// Stop terminates the background refresher (no-op when none runs).
func (r *Registry) Stop() {
	r.bgMu.Lock()
	defer r.bgMu.Unlock()
	r.stopLocked()
}

func (r *Registry) stopLocked() {
	if r.bgStop != nil {
		close(r.bgStop)
		<-r.bgDone
		r.bgStop, r.bgDone = nil, nil
	}
}

// buildSnapshot validates the advertisements and re-packs them for the
// batch kernel.
func buildSnapshot(summaries []cluster.NodeSummary) (*Snapshot, error) {
	if len(summaries) == 0 {
		return nil, errors.New("registry: fetch returned no summaries")
	}
	snap := &Snapshot{
		Summaries: summaries,
		Nodes:     make([]NodeGeom, 0, len(summaries)),
		Dims:      -1,
		byID:      make(map[string]int, len(summaries)),
	}
	for i, s := range summaries {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("registry: node %s: %w", s.NodeID, err)
		}
		if _, dup := snap.byID[s.NodeID]; dup {
			return nil, fmt.Errorf("registry: duplicate node id %q", s.NodeID)
		}
		snap.byID[s.NodeID] = i
		dims := s.Clusters[0].Bounds.Dims()
		if snap.Dims == -1 {
			snap.Dims = dims
		} else if dims != snap.Dims {
			return nil, fmt.Errorf("registry: node %s advertises %d dims, fleet has %d", s.NodeID, dims, snap.Dims)
		}
		g, bound := buildNodeGeom(s)
		snap.Nodes = append(snap.Nodes, g)
		snap.NodeBounds = append(snap.NodeBounds, bound)
		snap.TotalClusters += len(s.Clusters)
		snap.TotalSamples += s.TotalSamples
	}
	entries := make([]geometry.Entry, len(snap.NodeBounds))
	for i, b := range snap.NodeBounds {
		entries[i] = geometry.Entry{Rect: b, ID: i}
	}
	index, err := geometry.BuildRTree(entries, 0)
	if err != nil {
		return nil, fmt.Errorf("registry: node index: %w", err)
	}
	snap.Index = index
	return snap, nil
}

// buildNodeGeom re-packs one validated advertisement into the flat
// kernel layout and its covering rectangle.
func buildNodeGeom(s cluster.NodeSummary) (NodeGeom, geometry.Rect) {
	dims := s.Clusters[0].Bounds.Dims()
	g := NodeGeom{
		NodeID:       s.NodeID,
		Mins:         make([]float64, 0, len(s.Clusters)*dims),
		Maxs:         make([]float64, 0, len(s.Clusters)*dims),
		Sizes:        make([]int, 0, len(s.Clusters)),
		TotalSamples: s.TotalSamples,
		SummaryEpoch: s.Epoch,
	}
	rects := make([]geometry.Rect, len(s.Clusters))
	bound := s.Clusters[0].Bounds.Clone()
	for i, c := range s.Clusters {
		rects[i] = c.Bounds
		g.Sizes = append(g.Sizes, c.Size)
		if i > 0 {
			bound = bound.Union(c.Bounds)
		}
	}
	g.Mins, g.Maxs = geometry.FlattenRects(g.Mins, g.Maxs, rects)
	return g, bound
}

// buildSnapshotPatched builds a snapshot sharing the previous one's
// re-packed geometry for every unchanged node: only the roster indices
// listed in changed are re-validated and re-packed, and the R-tree is
// patched (path-copied) rather than rebuilt. The caller guarantees the
// roster (ids and order) matches prev.
func buildSnapshotPatched(prev *Snapshot, summaries []cluster.NodeSummary, changed []int) (*Snapshot, error) {
	snap := &Snapshot{
		Summaries:  summaries,
		Nodes:      append([]NodeGeom(nil), prev.Nodes...),
		Dims:       prev.Dims,
		NodeBounds: append([]geometry.Rect(nil), prev.NodeBounds...),
		byID:       prev.byID,
	}
	updates := make(map[int]geometry.Rect, len(changed))
	for _, i := range changed {
		s := summaries[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("registry: node %s: %w", s.NodeID, err)
		}
		if s.NodeID != prev.Nodes[i].NodeID {
			return nil, fmt.Errorf("registry: delta %d renamed node %q to %q", i, prev.Nodes[i].NodeID, s.NodeID)
		}
		if dims := s.Clusters[0].Bounds.Dims(); dims != prev.Dims {
			return nil, fmt.Errorf("registry: node %s advertises %d dims, fleet has %d", s.NodeID, dims, prev.Dims)
		}
		g, bound := buildNodeGeom(s)
		snap.Nodes[i] = g
		snap.NodeBounds[i] = bound
		updates[i] = bound
	}
	for i := range snap.Nodes {
		snap.TotalClusters += snap.Nodes[i].K()
		snap.TotalSamples += snap.Nodes[i].TotalSamples
	}
	index, err := prev.Index.Patch(updates)
	if err != nil {
		return nil, fmt.Errorf("registry: node index patch: %w", err)
	}
	snap.Index = index
	return snap, nil
}

// deltaProbeBytes approximates the wire cost of one epoch-conditional
// exchange answered "unchanged": the request's known-epoch entry plus
// the response's envelope epoch stamp.
const deltaProbeBytes = 24

// summaryWireBytes approximates one advertisement's v2 wire size: id
// and counters plus, per cluster, the bounds rectangle, centroid and
// size. Used for the refresh and push byte accounting in Stats.
func summaryWireBytes(s *cluster.NodeSummary) int64 {
	n := int64(len(s.NodeID)) + 16
	for i := range s.Clusters {
		c := &s.Clusters[i]
		n += int64(8*(2*c.Bounds.Dims()+len(c.Centroid))) + 8
	}
	return n
}
