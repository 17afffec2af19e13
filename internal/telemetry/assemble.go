package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// Cross-process trace assembly. Node-side spans piggyback on RPC
// responses (internal/transport) and are recorded into the leader's
// tracer with their original trace ID, so the flat retained span list
// holds pieces of one query's execution from several processes.
// AssembleTrace rebuilds the tree, and CriticalPath attributes every
// instant of the root span's wall time to exactly one phase category —
// queue, plan, rpc, wire, train, aggregate, or other — so "where did
// this query's latency go" has a machine-checkable answer (the
// categories sum to the root duration by construction).

// TraceNode is one span plus its children, sorted by start time.
type TraceNode struct {
	Span
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceTree is one query's assembled cross-process trace.
type TraceTree struct {
	TraceID string     `json:"trace_id"`
	Root    *TraceNode `json:"root"`
	// Spans counts every span in the trace, orphans included.
	Spans int `json:"spans"`
	// Procs lists the distinct "proc" attribute values seen across
	// the trace ("" entries are reported as "leader"), sorted — the
	// quick "how many processes contributed" signal.
	Procs []string `json:"procs"`
	// Orphans holds spans whose parent never arrived (e.g. a node
	// span whose RPC span was dropped by retention). They are kept
	// out of the tree but remain visible.
	Orphans []*TraceNode `json:"orphans,omitempty"`
}

// AssembleTrace rebuilds the span tree for traceID from a flat span
// list (extra traces in the input are ignored). It fails when the
// trace has no spans or no root (a span without a parent ID).
func AssembleTrace(spans []Span, traceID string) (*TraceTree, error) {
	nodes := map[string]*TraceNode{}
	var ordered []*TraceNode
	procs := map[string]bool{}
	for _, s := range spans {
		if s.TraceID != traceID {
			continue
		}
		n := &TraceNode{Span: s}
		// Later spans win on span-ID collision (idempotent re-record).
		if old, ok := nodes[s.SpanID]; ok {
			*old = *n
			continue
		}
		nodes[s.SpanID] = n
		ordered = append(ordered, n)
		if p := s.Attrs["proc"]; p != "" {
			procs[p] = true
		} else {
			procs["leader"] = true
		}
	}
	if len(ordered) == 0 {
		return nil, fmt.Errorf("telemetry: no spans for trace %s", traceID)
	}
	tree := &TraceTree{TraceID: traceID, Spans: len(ordered)}
	for _, n := range ordered {
		switch {
		case n.ParentID == "":
			if tree.Root == nil || n.Start.Before(tree.Root.Start) {
				tree.Root = n
			}
		default:
			if parent, ok := nodes[n.ParentID]; ok && parent != n {
				parent.Children = append(parent.Children, n)
			} else {
				tree.Orphans = append(tree.Orphans, n)
			}
		}
	}
	if tree.Root == nil {
		return nil, fmt.Errorf("telemetry: trace %s has no root span", traceID)
	}
	for _, n := range ordered {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
	}
	for p := range procs {
		tree.Procs = append(tree.Procs, p)
	}
	sort.Strings(tree.Procs)
	return tree, nil
}

// CriticalPathReport attributes the root span's wall time to phase
// categories. ByCategory sums exactly to TotalMS (every instant of the
// root window lands in one bucket).
type CriticalPathReport struct {
	TotalMS    float64            `json:"total_ms"`
	ByCategory map[string]float64 `json:"by_category_ms"`
}

// SpanCategory maps a span name to its critical-path category.
// hasChildren distinguishes an RPC span whose node reported phase
// spans (self time = wire/codec/network residue) from one that did not
// (self time = the whole opaque RPC).
func SpanCategory(name string, hasChildren bool) string {
	switch name {
	case "selection":
		return "plan"
	case "train":
		if hasChildren {
			return "wire"
		}
		return "rpc"
	case "aggregation":
		return "aggregate"
	case "node.queue":
		return "queue"
	case "node.fit":
		return "train"
	default:
		return "other"
	}
}

// CriticalPath decomposes the root span's duration. The sweep walks
// the root window instant by instant (segment by segment): time not
// covered by any child is the span's own category; time covered by
// children descends into the covering child that ends last — the one
// actually blocking progress when children overlap (parallel train
// fan-out) — and recurses. Children are clipped to the parent window,
// which also absorbs small cross-process clock skew.
func (t *TraceTree) CriticalPath() CriticalPathReport {
	rep := CriticalPathReport{
		TotalMS:    t.Root.DurationMS,
		ByCategory: map[string]float64{},
	}
	attribute(t.Root, t.Root.Start, t.Root.End, rep.ByCategory)
	// The sweep measures real timestamps; DurationMS is the span's own
	// claim. Keep TotalMS as the sweep total so the invariant
	// "categories sum to total" holds even if the two disagree.
	total := 0.0
	for _, v := range rep.ByCategory {
		total += v
	}
	rep.TotalMS = total
	return rep
}

// attribute assigns every instant of [lo, hi) within n to a category.
func attribute(n *TraceNode, lo, hi time.Time, acc map[string]float64) {
	self := SpanCategory(n.Name, len(n.Children) > 0)
	cur := lo
	for cur.Before(hi) {
		// Find the child covering cur that ends last (the blocking
		// one), and the next child start after cur for gap sizing.
		var blocking *TraceNode
		nextStart := hi
		for _, c := range n.Children {
			if !c.End.After(cur) {
				continue // already finished
			}
			if c.Start.After(cur) {
				if c.Start.Before(nextStart) {
					nextStart = c.Start
				}
				continue
			}
			if blocking == nil || c.End.After(blocking.End) {
				blocking = c
			}
		}
		if blocking == nil {
			end := nextStart
			if end.After(hi) {
				end = hi
			}
			acc[self] += durMS(cur, end)
			cur = end
			continue
		}
		end := blocking.End
		if end.After(hi) {
			end = hi
		}
		if !end.After(cur) { // defensive: zero-width child
			break
		}
		attribute(blocking, cur, end, acc)
		cur = end
	}
}

// durMS returns the [a, b) width in float milliseconds (never negative).
func durMS(a, b time.Time) float64 {
	if !b.After(a) {
		return 0
	}
	return float64(b.Sub(a)) / float64(time.Millisecond)
}
