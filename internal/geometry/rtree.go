package geometry

import (
	"errors"
	"fmt"
	"sort"
)

// A bulk-loaded R-tree over rectangles, used by the leader to index
// cluster advertisements when federations grow to hundreds or
// thousands of nodes: intersection search prunes the disjoint clusters
// without scanning every advertisement. Loading uses the
// Sort-Tile-Recursive (STR) algorithm (Leutenegger et al., 1997),
// which packs static entry sets into near-minimal trees — the right
// trade-off here because advertisements change rarely (only on node
// requantization) while queries arrive continuously.

// Entry pairs a rectangle with an opaque payload identifier.
type Entry struct {
	Rect Rect
	ID   int
}

// RTree is an immutable, bulk-loaded R-tree.
type RTree struct {
	root *rtreeNode
	size int
	dims int
}

type rtreeNode struct {
	bounds   Rect
	children []*rtreeNode // nil for leaves
	entries  []Entry      // nil for internal nodes
	// flatMins/flatMaxs mirror the leaf entries' rectangles in one
	// contiguous dim-major block (flatMins[d*len(entries)+i] is entry
	// i's min in dimension d). The candidate walk scans these instead
	// of chasing each entry's two slice headers — at fleet scale the
	// scan is memory- and branch-bound, and the columnar layout is what
	// lets the per-dimension pass run branchless over whole cache
	// lines.
	flatMins, flatMaxs []float64
}

// newLeaf builds a leaf node over the given entries, computing its
// covering bounds and the columnar rectangle mirror.
func newLeaf(entries []Entry) *rtreeNode {
	dims := entries[0].Rect.Dims()
	cnt := len(entries)
	mins := make([]float64, dims*cnt)
	maxs := make([]float64, dims*cnt)
	for i := range entries {
		for d := 0; d < dims; d++ {
			mins[d*cnt+i] = entries[i].Rect.Min[d]
			maxs[d*cnt+i] = entries[i].Rect.Max[d]
		}
	}
	return &rtreeNode{
		entries: entries, bounds: boundsOfEntries(entries),
		flatMins: mins, flatMaxs: maxs,
	}
}

// DefaultRTreeFill is the default node fan-out.
const DefaultRTreeFill = 16

// leafScanBlock bounds the stack-resident miss-count block of the
// columnar candidate scan; leaves larger than this (custom fills) fall
// back to the entry-major walk.
const leafScanBlock = 64

// BuildRTree bulk-loads the entries. maxFill is the node fan-out
// (0 uses DefaultRTreeFill). All rectangles must share a
// dimensionality.
func BuildRTree(entries []Entry, maxFill int) (*RTree, error) {
	if maxFill == 0 {
		maxFill = DefaultRTreeFill
	}
	if maxFill < 2 {
		return nil, fmt.Errorf("geometry: rtree fill %d < 2", maxFill)
	}
	if len(entries) == 0 {
		return nil, errors.New("geometry: rtree needs at least one entry")
	}
	dims := entries[0].Rect.Dims()
	for i, e := range entries {
		if err := e.Rect.Validate(); err != nil {
			return nil, fmt.Errorf("geometry: rtree entry %d: %w", i, err)
		}
		if e.Rect.Dims() != dims {
			return nil, fmt.Errorf("geometry: rtree entry %d has %d dims, want %d", i, e.Rect.Dims(), dims)
		}
	}
	own := append([]Entry(nil), entries...)
	leaves := strPack(own, maxFill, 0, dims)
	root := buildUpward(leaves, maxFill, dims)
	return &RTree{root: root, size: len(entries), dims: dims}, nil
}

// strPack recursively sort-tiles entries into leaf nodes.
func strPack(entries []Entry, maxFill, dim, dims int) []*rtreeNode {
	if len(entries) <= maxFill || dim >= dims {
		// Emit leaves of at most maxFill entries in current order.
		var leaves []*rtreeNode
		for start := 0; start < len(entries); start += maxFill {
			end := start + maxFill
			if end > len(entries) {
				end = len(entries)
			}
			leaves = append(leaves, newLeaf(entries[start:end]))
		}
		return leaves
	}
	sort.SliceStable(entries, func(i, j int) bool {
		ci := (entries[i].Rect.Min[dim] + entries[i].Rect.Max[dim]) / 2
		cj := (entries[j].Rect.Min[dim] + entries[j].Rect.Max[dim]) / 2
		return ci < cj
	})
	// Number of vertical slabs: ceil((n/maxFill)^(1/(dims-dim))) is
	// the textbook choice; a simple square-ish split works well at
	// our scales.
	slabCount := intSqrtCeil((len(entries) + maxFill - 1) / maxFill)
	if slabCount < 1 {
		slabCount = 1
	}
	slabSize := (len(entries) + slabCount - 1) / slabCount
	var leaves []*rtreeNode
	for start := 0; start < len(entries); start += slabSize {
		end := start + slabSize
		if end > len(entries) {
			end = len(entries)
		}
		leaves = append(leaves, strPack(entries[start:end], maxFill, dim+1, dims)...)
	}
	return leaves
}

// buildUpward groups nodes level by level until one root remains.
func buildUpward(nodes []*rtreeNode, maxFill, dims int) *rtreeNode {
	for len(nodes) > 1 {
		var next []*rtreeNode
		for start := 0; start < len(nodes); start += maxFill {
			end := start + maxFill
			if end > len(nodes) {
				end = len(nodes)
			}
			children := append([]*rtreeNode(nil), nodes[start:end]...)
			parent := &rtreeNode{children: children, bounds: boundsOfNodes(children)}
			next = append(next, parent)
		}
		nodes = next
	}
	return nodes[0]
}

func boundsOfEntries(entries []Entry) Rect {
	b := entries[0].Rect.Clone()
	for _, e := range entries[1:] {
		b.expandToRect(e.Rect)
	}
	return b
}

func boundsOfNodes(nodes []*rtreeNode) Rect {
	b := nodes[0].bounds.Clone()
	for _, n := range nodes[1:] {
		b.expandToRect(n.bounds)
	}
	return b
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return n
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Dims returns the indexed dimensionality.
func (t *RTree) Dims() int { return t.dims }

// Search visits every entry whose rectangle intersects probe; fn
// returning false stops the walk early. The probe must match the
// tree's dimensionality.
func (t *RTree) Search(probe Rect, fn func(Entry) bool) error {
	if probe.Dims() != t.dims {
		return fmt.Errorf("geometry: probe has %d dims, tree has %d", probe.Dims(), t.dims)
	}
	t.search(t.root, probe, fn)
	return nil
}

// search returns false when the walk was stopped.
func (t *RTree) search(n *rtreeNode, probe Rect, fn func(Entry) bool) bool {
	if !n.bounds.Intersects(probe) {
		return true
	}
	if n.entries != nil {
		for _, e := range n.entries {
			if e.Rect.Intersects(probe) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.search(c, probe, fn) {
			return false
		}
	}
	return true
}

// AppendOverlapCandidates appends to dst the IDs of every entry whose
// rectangle overlaps the probe in at least a minFrac fraction of its
// dimensions, and returns the extended slice (append semantics: a dst
// with spare capacity makes the walk allocation-free).
//
// This is the sound pruning bound for the paper's Eq. 2 score: the
// per-cluster overlap rate is the MEAN of per-dimension interval
// overlaps, each of which is zero exactly when the intervals are
// disjoint in that dimension and positive otherwise. A covering
// rectangle that overlaps the probe in fewer than ⌈minFrac·dims⌉
// dimensions therefore bounds every contained cluster's rate strictly
// below minFrac — with minFrac = ε, such entries provably rank zero
// and can be skipped before the kernel. The predicate is monotone down
// the tree (child bounds nest inside parent bounds), so whole subtrees
// prune in one comparison. Entry IDs are emitted in tree order, not
// insertion order.
func (t *RTree) AppendOverlapCandidates(probe Rect, minFrac float64, dst []int) ([]int, error) {
	if probe.Dims() != t.dims {
		return dst, fmt.Errorf("geometry: probe has %d dims, tree has %d", probe.Dims(), t.dims)
	}
	// Smallest integer dimension count whose fraction clears minFrac,
	// computed with the exact float division the kernel's callers use
	// (float64(k)/float64(dims) >= minFrac) so the bound never drifts
	// from the brute comparison.
	minDims := 0
	for minDims <= t.dims && float64(minDims)/float64(t.dims) < minFrac {
		minDims++
	}
	if minDims > t.dims {
		// minFrac > 1: no entry can qualify.
		return dst, nil
	}
	return appendCandidates(t.root, probe, minDims, dst), nil
}

func appendCandidates(n *rtreeNode, probe Rect, minDims int, dst []int) []int {
	if overlapDimCount(probe, n.bounds) < minDims {
		return dst
	}
	if n.entries != nil {
		// Scan the leaf's flattened rectangles. The dimension loop exits
		// in both directions: as soon as the count clears minDims the
		// entry is a candidate, and as soon as the remaining dimensions
		// cannot lift the count to minDims the entry is pruned — at high
		// d almost every cold entry dies within the first few
		// dimensions.
		if minDims <= 0 { // minFrac <= 0: every entry qualifies
			for i := range n.entries {
				dst = append(dst, n.entries[i].ID)
			}
			return dst
		}
		dims := len(probe.Min)
		cnt := len(n.entries)
		if cnt <= leafScanBlock && dims < 256 {
			// Columnar pass: one dimension at a time across the whole
			// leaf, accumulating per-entry disjoint-dimension counts in a
			// stack block. The two comparisons cannot both be true
			// (lo > cmax[i] and hi < cmin[i] would order lo above hi), so
			// their sum is exactly "disjoint in this dimension" — and
			// materializing them as 0/1 keeps the loop free of
			// data-dependent branches, which is what the entry-major walk
			// stalls on at high d.
			var miss [leafScanBlock]uint8
			for i := 0; i < cnt; i++ {
				miss[i] = 0
			}
			for d := 0; d < dims; d++ {
				lo, hi := probe.Min[d], probe.Max[d]
				cmin := n.flatMins[d*cnt : d*cnt+cnt : d*cnt+cnt]
				cmax := n.flatMaxs[d*cnt : d*cnt+cnt : d*cnt+cnt]
				for i := 0; i < cnt; i++ {
					var a, b uint8
					if lo > cmax[i] {
						a = 1
					}
					if hi < cmin[i] {
						b = 1
					}
					miss[i] += a + b
				}
			}
			budget := uint8(dims - minDims)
			for i := 0; i < cnt; i++ {
				if miss[i] <= budget {
					dst = append(dst, n.entries[i].ID)
				}
			}
			return dst
		}
		for i := range n.entries {
			if overlapDimCount(probe, n.entries[i].Rect) >= minDims {
				dst = append(dst, n.entries[i].ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = appendCandidates(c, probe, minDims, dst)
	}
	return dst
}

// overlapDimCount counts the dimensions in which the two rectangles'
// intervals overlap (touching counts — IntervalOverlap is positive at
// zero-width contact).
func overlapDimCount(q, r Rect) int {
	n := 0
	for d := range q.Min {
		if q.Min[d] <= r.Max[d] && q.Max[d] >= r.Min[d] {
			n++
		}
	}
	return n
}

// Patch returns a new tree in which each entry listed in updates has
// its rectangle replaced, sharing every untouched subtree with the
// receiver (both trees stay immutable). The tree keeps its STR leaf
// layout — entries are matched by ID in place, no re-sorting — so a
// patch is O(N) ID checks plus O(changed·depth) node copies, versus
// the O(N log N) sort of a full rebuild. Packing quality degrades as
// patched rectangles drift from their original tiles; callers rebuild
// past a churn threshold. Every update ID must exist in the tree.
func (t *RTree) Patch(updates map[int]Rect) (*RTree, error) {
	if len(updates) == 0 {
		return t, nil
	}
	for id, r := range updates {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("geometry: rtree patch entry %d: %w", id, err)
		}
		if r.Dims() != t.dims {
			return nil, fmt.Errorf("geometry: rtree patch entry %d has %d dims, want %d", id, r.Dims(), t.dims)
		}
	}
	root, _, patched := patchNode(t.root, updates)
	if patched != len(updates) {
		return nil, fmt.Errorf("geometry: rtree patch matched %d of %d entry ids", patched, len(updates))
	}
	return &RTree{root: root, size: t.size, dims: t.dims}, nil
}

// patchNode rewrites the subtree rooted at n, returning the (possibly
// shared) replacement, whether anything under it changed, and how many
// updates it applied.
func patchNode(n *rtreeNode, updates map[int]Rect) (*rtreeNode, bool, int) {
	if n.entries != nil {
		touched := 0
		for i := range n.entries {
			if _, ok := updates[n.entries[i].ID]; ok {
				touched++
			}
		}
		if touched == 0 {
			return n, false, 0
		}
		ents := append([]Entry(nil), n.entries...)
		for i := range ents {
			if r, ok := updates[ents[i].ID]; ok {
				ents[i].Rect = r
			}
		}
		return newLeaf(ents), true, touched
	}
	changed := false
	patched := 0
	children := n.children
	for i, c := range n.children {
		nc, ch, p := patchNode(c, updates)
		patched += p
		if ch {
			if !changed {
				children = append([]*rtreeNode(nil), n.children...)
				changed = true
			}
			children[i] = nc
		}
	}
	if !changed {
		return n, false, 0
	}
	return &rtreeNode{children: children, bounds: boundsOfNodes(children)}, true, patched
}
