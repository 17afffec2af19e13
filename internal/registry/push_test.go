package registry

import (
	"context"
	"sync"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// pushSummary builds a single-cluster advertisement for id at the given
// epoch with bounds [lo,lo+1]² — distinguishable by lo.
func pushSummary(id string, epoch uint64, lo float64) cluster.NodeSummary {
	return cluster.NodeSummary{
		NodeID: id,
		Clusters: []cluster.Summary{{
			Bounds:   geometry.MustRect([]float64{lo, lo}, []float64{lo + 1, lo + 1}),
			Centroid: []float64{lo + 0.5, lo + 0.5},
			Size:     10,
		}},
		TotalSamples: 10,
		Epoch:        epoch,
	}
}

// covers reports whether the snapshot's R-tree finds node id at the
// probe rectangle.
func covers(t *testing.T, s *Snapshot, id string, lo float64) bool {
	t.Helper()
	probe := geometry.MustRect([]float64{lo + 0.1, lo + 0.1}, []float64{lo + 0.2, lo + 0.2})
	hit := false
	if err := s.Index.Search(probe, func(e geometry.Entry) bool {
		hit = hit || s.Nodes[e.ID].NodeID == id
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return hit
}

func TestRegistryApplyPush(t *testing.T) {
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		return fleet(3, 2), nil
	}, nil)

	// Before any snapshot there is no roster to land on: dropped.
	if applied, err := r.ApplyPush(pushSummary("node-1", 5, 100)); err != nil || applied {
		t.Fatalf("push before snapshot: applied=%v err=%v", applied, err)
	}

	s0, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Unfenceable (epoch 0) and unknown-node pushes are dropped.
	if applied, _ := r.ApplyPush(pushSummary("node-1", 0, 100)); applied {
		t.Fatal("zero-epoch push applied")
	}
	if applied, _ := r.ApplyPush(pushSummary("node-x", 5, 100)); applied {
		t.Fatal("unknown-node push applied")
	}
	// Stale (≤ recorded epoch 2) pushes are dropped.
	if applied, _ := r.ApplyPush(pushSummary("node-1", 2, 100)); applied {
		t.Fatal("equal-epoch push applied")
	}

	// A genuinely newer advertisement lands: new snapshot, patched
	// index, epoch advanced, counters moved.
	applied, err := r.ApplyPush(pushSummary("node-1", 5, 100))
	if err != nil || !applied {
		t.Fatalf("push not applied: %v", err)
	}
	s1, _ := r.Current()
	if s1 == s0 || s1.Epoch != s0.Epoch+1 {
		t.Fatalf("push did not publish: %d -> %d", s0.Epoch, s1.Epoch)
	}
	if got := s1.NodeSummaryEpoch("node-1"); got != 5 {
		t.Fatalf("node-1 epoch after push = %d", got)
	}
	if g := s1.Node("node-1"); g != &s1.Nodes[1] || s0.Node("node-1").SummaryEpoch != 2 {
		t.Fatalf("patched snapshot's lookup: %p (want %p), predecessor epoch %d", g, &s1.Nodes[1], s0.Node("node-1").SummaryEpoch)
	}
	if !covers(t, s1, "node-1", 100) {
		t.Fatal("index not patched to the pushed bounds")
	}
	if covers(t, s1, "node-1", 1) {
		t.Fatal("index still covers the pre-push bounds")
	}
	if r.Epoch() != s1.Epoch {
		t.Fatalf("registry at epoch %d after one push, want the pushed snapshot's %d", r.Epoch(), s1.Epoch)
	}

	st := r.Stats()
	if st.PushApplied != 1 || st.PushDroppedStale != 2 || st.PushDroppedUnknown != 2 || st.PushBytes == 0 {
		t.Fatalf("push accounting: %+v", st)
	}
	if st.IndexPatches != 1 {
		t.Fatalf("push rebuilt the index instead of patching: %+v", st)
	}
}

// TestRegistryPushPullInterleaving is the regression test for the
// push/pull race: a push arriving around an in-flight single-flight
// refresh must never regress the registry to the pull's staler body,
// and re-delivering the push must not double-apply.
func TestRegistryPushPullInterleaving(t *testing.T) {
	var mu sync.Mutex
	nodes := fleet(4, 2)
	full := func(ctx context.Context) ([]cluster.NodeSummary, error) {
		mu.Lock()
		defer mu.Unlock()
		return append([]cluster.NodeSummary(nil), nodes...), nil
	}
	r := newTestRegistry(t, full, func(_ context.Context, known []NodeEpoch) ([]Delta, error) {
		// A slow fleet view: always ships the full (old, epoch-2)
		// body for node-1 and answers unchanged for the rest.
		mu.Lock()
		defer mu.Unlock()
		out := make([]Delta, len(nodes))
		for i, n := range nodes {
			if n.NodeID == "node-1" {
				out[i] = Delta{NodeID: n.NodeID, Summary: n}
			} else {
				out[i] = Delta{NodeID: n.NodeID, Unchanged: true}
			}
		}
		return out, nil
	})
	ctx := context.Background()
	if _, err := r.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}

	// Order A — push first, stale pull second: the node pushed epoch 6,
	// then a refresh fetches a delta whose node-1 body is still the
	// old epoch-2 advertisement. The refresh must keep the pushed
	// summary (epoch fencing on the pull side), not regress to the
	// fetched one.
	if applied, err := r.ApplyPush(pushSummary("node-1", 6, 200)); err != nil || !applied {
		t.Fatalf("push: applied=%v err=%v", applied, err)
	}
	preEpoch := r.Epoch()
	s, err := r.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch < preEpoch {
		t.Fatalf("refresh regressed the registry epoch: %d -> %d", preEpoch, s.Epoch)
	}
	if got := s.NodeSummaryEpoch("node-1"); got != 6 {
		t.Fatalf("pull clobbered the pushed advertisement: node-1 epoch %d, want 6", got)
	}
	if !covers(t, s, "node-1", 200) {
		t.Fatal("pull reverted node-1's index rectangle to the stale bounds")
	}

	// Order B — push lands while a refresh is in flight. The single
	// flight serializes them (the push waits), so the push must still
	// win afterwards: epoch 7 > whatever the refresh republished.
	release := make(chan struct{})
	entered := make(chan struct{})
	r2 := newTestRegistry(t, full, func(_ context.Context, known []NodeEpoch) ([]Delta, error) {
		close(entered)
		<-release
		mu.Lock()
		defer mu.Unlock()
		out := make([]Delta, len(nodes))
		for i, n := range nodes {
			out[i] = Delta{NodeID: n.NodeID, Summary: n}
		}
		return out, nil
	})
	if _, err := r2.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var refreshErr, pushErr error
	go func() {
		defer wg.Done()
		_, refreshErr = r2.Refresh(ctx)
	}()
	<-entered // the refresh is mid-fetch when the push arrives
	go func() {
		defer wg.Done()
		_, pushErr = r2.ApplyPush(pushSummary("node-1", 7, 300))
	}()
	// Give the push time to park on the single flight, then let the
	// fetch finish; the push must apply after the refresh publishes.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if refreshErr != nil || pushErr != nil {
		t.Fatalf("refresh=%v push=%v", refreshErr, pushErr)
	}
	s2, _ := r2.Current()
	if got := s2.NodeSummaryEpoch("node-1"); got != 7 {
		t.Fatalf("in-flight refresh swallowed the push: node-1 epoch %d, want 7", got)
	}
	if !covers(t, s2, "node-1", 300) {
		t.Fatal("pushed rectangle missing after in-flight refresh")
	}

	// Re-delivering the same push (duplicate frame, reconnect replay)
	// must be a no-op: fenced as stale, applied-counter unchanged,
	// snapshot pointer untouched.
	before := r2.Stats()
	if applied, err := r2.ApplyPush(pushSummary("node-1", 7, 300)); err != nil || applied {
		t.Fatalf("duplicate push re-applied: applied=%v err=%v", applied, err)
	}
	after := r2.Stats()
	if after.PushApplied != before.PushApplied || after.PushDroppedStale != before.PushDroppedStale+1 {
		t.Fatalf("duplicate push accounting: before=%+v after=%+v", before, after)
	}
	if cur, _ := r2.Current(); cur != s2 {
		t.Fatal("duplicate push published a new snapshot")
	}
}
