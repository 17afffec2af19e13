package registry

import (
	"fmt"

	"qens/internal/cluster"
)

// ApplyPush ingests one node-pushed advertisement: the node detected
// material drift (or re-quantized) and sent its fresh summary instead
// of waiting to be pulled. The summary goes through the same
// validation and R-tree patch machinery as a refresh.
//
// Epoch fencing makes the path safe against reordering and replay: a
// push whose node epoch is not strictly newer than what the current
// snapshot records for that node is dropped (idempotent — a duplicate
// or out-of-order push cannot regress the registry), and pushes
// serialize with refreshes on the same mutex, so a push landing during
// an in-flight refresh waits and is then fenced against the
// refreshed snapshot. Unknown nodes are dropped too: roster changes go
// through the pull path, which sees the whole fleet.
//
// The returned bool reports whether the push was applied (false =
// fenced off or unknown node, with the reason counted in Stats); an
// error means the summary failed validation.
func (r *Registry) ApplyPush(sum cluster.NodeSummary) (bool, error) {
	if sum.Epoch == 0 {
		// An un-versioned advertisement cannot be fenced; the pull
		// path (which trusts roster order, not epochs) must carry it.
		r.pushDroppedStale.Add(1)
		return false, nil
	}
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()

	prev := r.cur.Load()
	if prev == nil {
		// No snapshot to patch yet — the first pull establishes the
		// roster; pushing ahead of it would invent a one-node fleet.
		r.pushDroppedUnknown.Add(1)
		return false, nil
	}
	idx, ok := prev.byID[sum.NodeID]
	if !ok {
		r.pushDroppedUnknown.Add(1)
		return false, nil
	}
	if sum.Epoch <= prev.Nodes[idx].SummaryEpoch {
		r.pushDroppedStale.Add(1)
		return false, nil
	}

	summaries := append([]cluster.NodeSummary(nil), prev.Summaries...)
	summaries[idx] = sum
	var (
		snap *Snapshot
		err  error
	)
	if prev.Index != nil {
		snap, err = buildSnapshotPatched(prev, summaries, []int{idx})
		if err == nil {
			r.indexPatches.Add(1)
		}
	} else {
		snap, err = buildSnapshot(summaries)
		if err == nil {
			r.indexRebuilds.Add(1)
		}
	}
	if err != nil {
		return false, fmt.Errorf("registry: push from %s: %w", sum.NodeID, err)
	}
	// covers is inherited: an invalidation pending when the push lands
	// still forces the re-fetch it asked for.
	snap.covers = prev.covers
	snap.Epoch = r.epoch.Add(1)
	r.cur.Store(snap)
	r.pushApplied.Add(1)
	r.pushBytes.Add(summaryWireBytes(&sum))
	return true, nil
}
