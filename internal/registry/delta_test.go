package registry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// deltaFleet is an in-memory fleet with mutable per-node state. fetch
// answers a pull that knows nothing, fetchDelta a conditional one (see
// newTestRegistry), so the call counters tell the two apart.
type deltaFleet struct {
	mu         sync.Mutex
	nodes      []cluster.NodeSummary
	fullCalls  int
	deltaCalls int
	// fullShipped counts, per node, the full summaries moved over the
	// delta path (the stale-delta regression asserts on it).
	fullShipped map[string]int
}

func newDeltaFleet(n int) *deltaFleet {
	f := &deltaFleet{fullShipped: make(map[string]int)}
	for i := 0; i < n; i++ {
		lo := float64(i)
		f.nodes = append(f.nodes, cluster.NodeSummary{
			NodeID: fmt.Sprintf("node-%d", i),
			Clusters: []cluster.Summary{{
				Bounds:   geometry.MustRect([]float64{lo, lo}, []float64{lo + 1, lo + 1}),
				Centroid: []float64{lo + 0.5, lo + 0.5},
				Size:     10,
			}},
			TotalSamples: 10,
			Epoch:        1,
		})
	}
	return f
}

// bump re-quantizes node i: new bounds (same dimensionality) and an
// advertised epoch bump.
func (f *deltaFleet) bump(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dims := f.nodes[i].Clusters[0].Bounds.Dims()
	lo := float64(i%100) + 100
	min := make([]float64, dims)
	max := make([]float64, dims)
	cen := make([]float64, dims)
	for d := 0; d < dims; d++ {
		min[d], max[d], cen[d] = lo, lo+2, lo+1
	}
	f.nodes[i].Clusters = []cluster.Summary{{
		Bounds:   geometry.MustRect(min, max),
		Centroid: cen,
		Size:     12,
	}}
	f.nodes[i].TotalSamples = 12
	f.nodes[i].Epoch++
}

// mutateSilently changes node i's advertisement WITHOUT bumping the
// epoch — the failure mode the escape hatch exists for.
func (f *deltaFleet) mutateSilently(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	lo := float64(i) + 500
	f.nodes[i].Clusters = []cluster.Summary{{
		Bounds:   geometry.MustRect([]float64{lo, lo}, []float64{lo + 1, lo + 1}),
		Centroid: []float64{lo + 0.5, lo + 0.5},
		Size:     10,
	}}
}

func (f *deltaFleet) fetch(context.Context) ([]cluster.NodeSummary, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fullCalls++
	return append([]cluster.NodeSummary(nil), f.nodes...), nil
}

func (f *deltaFleet) fetchDelta(_ context.Context, known []NodeEpoch) ([]Delta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deltaCalls++
	byID := make(map[string]uint64, len(known))
	for _, k := range known {
		byID[k.NodeID] = k.Epoch
	}
	out := make([]Delta, len(f.nodes))
	for i, n := range f.nodes {
		if e, ok := byID[n.NodeID]; ok && e != 0 && e == n.Epoch {
			out[i] = Delta{NodeID: n.NodeID, Unchanged: true}
			continue
		}
		f.fullShipped[n.NodeID]++
		out[i] = Delta{NodeID: n.NodeID, Summary: n}
	}
	return out, nil
}

func (f *deltaFleet) registry(t *testing.T) *Registry {
	t.Helper()
	return newTestRegistry(t, f.fetch, f.fetchDelta)
}

func TestRegistryDeltaLifecycle(t *testing.T) {
	f := newDeltaFleet(8)
	r := f.registry(t)

	ctx := context.Background()
	s1, err := r.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.FullRefreshes != 1 || st.DeltaRefreshes != 0 || f.fullCalls != 1 {
		t.Fatalf("first refresh not full: %+v (%d full calls)", st, f.fullCalls)
	}

	// No churn: every node answers unchanged, so the snapshot stays
	// published at its epoch and nothing is rebuilt or patched.
	s2, err := r.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Fatalf("zero-churn refresh published a new snapshot: epoch %d -> %d", s1.Epoch, s2.Epoch)
	}
	st := r.Stats()
	if st.DeltaRefreshes != 1 || st.NodesReused != 8 || st.NodesRefetched != 0 {
		t.Fatalf("zero-churn delta accounting: %+v", st)
	}
	if st.IndexPatches != 0 || st.IndexRebuilds != 1 {
		t.Fatalf("zero-churn refresh touched the index: %+v", st)
	}
	if f.fullCalls != 1 || f.deltaCalls != 1 {
		t.Fatalf("calls: %d full, %d delta", f.fullCalls, f.deltaCalls)
	}

	// One node re-quantizes (12.5% churn, below the 25% threshold): its
	// summary is re-fetched, the rest reuse, and the index is patched —
	// searches must see the moved rectangle.
	f.bump(3)
	s3, err := r.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.DeltaRefreshes != 2 || st.NodesReused != 15 || st.NodesRefetched != 1 || st.IndexPatches != 1 {
		t.Fatalf("low-churn delta accounting: %+v", st)
	}
	if s3.Epoch != s1.Epoch+1 {
		t.Fatalf("low-churn refresh epoch %d, want %d", s3.Epoch, s1.Epoch+1)
	}
	if s3.NodeSummaryEpoch("node-3") != 2 {
		t.Fatalf("node-3 epoch %d after bump", s3.NodeSummaryEpoch("node-3"))
	}
	probe := geometry.MustRect([]float64{103, 103}, []float64{104, 104})
	hit := false
	if err := s3.Index.Search(probe, func(e geometry.Entry) bool {
		hit = hit || s3.Nodes[e.ID].NodeID == "node-3"
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("patched index does not cover node-3's new bounds")
	}

	// Heavy churn (4/8 = 50% > 25%): delta refresh still moves only the
	// changed bodies but rebuilds the index from scratch.
	for _, i := range []int{0, 1, 2, 4} {
		f.bump(i)
	}
	if _, err := r.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.DeltaRefreshes != 3 || st.NodesRefetched != 5 || st.IndexPatches != 1 || st.IndexRebuilds != 2 {
		t.Fatalf("high-churn delta accounting: %+v", st)
	}

	// Invalidate makes the next refresh tell the fleet nothing, so every
	// body is re-fetched.
	r.Invalidate()
	if _, err := r.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.FullRefreshes != 2 || f.fullCalls != 2 {
		t.Fatalf("invalidate did not force a full fetch: %+v (%d full calls)", st, f.fullCalls)
	}
}

// TestRegistryDeltaRosterChange: a node joining the fleet changes the
// roster, which must force an index rebuild (patching assumes stable
// entry IDs) while still reusing unchanged bodies.
func TestRegistryDeltaRosterChange(t *testing.T) {
	f := newDeltaFleet(4)
	r := f.registry(t)
	ctx := context.Background()
	if _, err := r.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}

	f.mu.Lock()
	lo := 42.0
	f.nodes = append(f.nodes, cluster.NodeSummary{
		NodeID: "node-late",
		Clusters: []cluster.Summary{{
			Bounds:   geometry.MustRect([]float64{lo, lo}, []float64{lo + 1, lo + 1}),
			Centroid: []float64{lo + 0.5, lo + 0.5},
			Size:     10,
		}},
		TotalSamples: 10,
		Epoch:        1,
	})
	f.mu.Unlock()

	s, err := r.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 5 || s.NodeSummaryEpoch("node-late") != 1 {
		t.Fatalf("roster change not reflected: %d nodes", len(s.Nodes))
	}
	st := r.Stats()
	if st.DeltaRefreshes != 1 || st.NodesReused != 4 || st.NodesRefetched != 1 {
		t.Fatalf("roster-change delta accounting: %+v", st)
	}
	if st.IndexPatches != 0 || st.IndexRebuilds != 2 { // initial build + roster rebuild
		t.Fatalf("roster change must rebuild the index: %+v", st)
	}
}

// TestRegistryDeltaStaleEscapeHatch is the regression test for the
// stale-delta failure mode: a node whose content changed while its
// advertised epoch stayed put is served from the reused summary until
// InvalidateNode (or SignalNodeEpoch drift detection) forces a
// zero-epoch re-fetch for that node — and only that node.
func TestRegistryDeltaStaleEscapeHatch(t *testing.T) {
	f := newDeltaFleet(6)
	r := f.registry(t)
	ctx := context.Background()
	if _, err := r.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}

	// The node mutates without bumping its epoch: the conditional path
	// has no way to notice, so the stale rectangle survives the refresh.
	f.mutateSilently(2)
	s, err := r.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stale := geometry.MustRect([]float64{2, 2}, []float64{3, 3})
	if got := s.Summaries[2].Clusters[0].Bounds; got.Min[0] != stale.Min[0] {
		t.Fatalf("expected the stale summary to be reused, got bounds %v", got)
	}
	if f.fullShipped["node-2"] != 0 { // the delta path never moved its body
		t.Fatalf("node-2 full summaries over delta path: %d", f.fullShipped["node-2"])
	}

	// Escape hatch: force that one node. The next refresh must send a
	// zero known-epoch for it, pull the full body, and keep reusing the
	// other five.
	r.InvalidateNode("node-2")
	s, err = r.Snapshot(ctx) // stale → refresh
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Summaries[2].Clusters[0].Bounds.Min[0]; got != 502 {
		t.Fatalf("forced re-fetch did not pull the mutated summary: min %v", got)
	}
	st := r.Stats()
	if st.NodesRefetched != 1 || st.NodesReused != 11 {
		t.Fatalf("escape hatch re-fetched more than one node: %+v", st)
	}
	if f.fullShipped["node-2"] != 1 {
		t.Fatalf("node-2 full summaries over delta path after escape hatch: %d", f.fullShipped["node-2"])
	}

	// SignalNodeEpoch: drift observed out-of-band (a training response
	// echoing a newer epoch) trips the same per-node hatch.
	f.mutateSilently(4)
	if r.SignalNodeEpoch("node-4", 1) {
		t.Fatal("equal epoch misreported as drift")
	}
	if !r.SignalNodeEpoch("node-4", 9) {
		t.Fatal("newer epoch not detected as drift")
	}
	s, err = r.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Summaries[4].Clusters[0].Bounds.Min[0]; got != 504 {
		t.Fatalf("signal-driven re-fetch did not pull the mutated summary: min %v", got)
	}

	// A fleet answering a forced re-fetch with "unchanged" is broken;
	// the registry must refuse the refresh rather than trust it.
	r.InvalidateNode("node-1")
	bad := func(_ context.Context, known []NodeEpoch) ([]Delta, error) {
		out := make([]Delta, len(known))
		for i, k := range known {
			out[i] = Delta{NodeID: k.NodeID, Unchanged: true}
		}
		return out, nil
	}
	r2 := newTestRegistry(t, f.fetch, bad)
	if _, err := r2.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	r2.InvalidateNode("node-1")
	if _, err := r2.Snapshot(ctx); err == nil || !strings.Contains(err.Error(), "forced re-fetch") {
		t.Fatalf("unchanged answer to a forced re-fetch accepted: %v", err)
	}
}

// TestRegistryDeltaBytesAtScale pins the acceptance number: at
// N=10 000 paper-shaped advertisements (K=5 clusters, 16 dims) and 1%
// churn, a delta refresh moves less than 5% of a full refresh's bytes.
func TestRegistryDeltaBytesAtScale(t *testing.T) {
	const n = 10000
	f := &deltaFleet{fullShipped: make(map[string]int)}
	for i := 0; i < n; i++ {
		s := cluster.NodeSummary{NodeID: fmt.Sprintf("node-%05d", i), Epoch: 1, TotalSamples: 50}
		for c := 0; c < 5; c++ {
			min := make([]float64, 16)
			max := make([]float64, 16)
			cen := make([]float64, 16)
			for d := 0; d < 16; d++ {
				lo := float64((i*31+c*7+d)%90) + float64(d)*0.01
				min[d], max[d] = lo, lo+1
				cen[d] = lo + 0.5
			}
			s.Clusters = append(s.Clusters, cluster.Summary{
				Bounds: geometry.MustRect(min, max), Centroid: cen, Size: 10,
			})
		}
		f.nodes = append(f.nodes, s)
	}
	r := f.registry(t)
	ctx := context.Background()
	if _, err := r.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i += 100 { // 1% churn
		f.bump(i)
	}
	if _, err := r.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.FullRefreshes != 1 || st.DeltaRefreshes != 1 || st.NodesRefetched != 100 {
		t.Fatalf("scale scenario accounting: %+v", st)
	}
	if st.FullBytes == 0 || st.DeltaBytes == 0 {
		t.Fatalf("byte counters empty: %+v", st)
	}
	if ratio := float64(st.DeltaBytes) / float64(st.FullBytes); ratio >= 0.05 {
		t.Fatalf("delta refresh moved %.2f%% of full-refresh bytes (delta=%d full=%d), want < 5%%",
			100*ratio, st.DeltaBytes, st.FullBytes)
	}
}

// TestRegistryInvalidationDuringRefresh: an invalidation that lands
// while a refresh's fetch is on the wire must survive that refresh —
// the fetched data may predate it. The snapshot stays stale, the next
// Snapshot call pulls again, and that pull honours what was asked for
// (every body after Invalidate, a zero known-epoch after
// InvalidateNode).
func TestRegistryInvalidationDuringRefresh(t *testing.T) {
	cases := []struct {
		name       string
		invalidate func(*Registry)
		honoured   func(f *deltaFleet, known []NodeEpoch) bool
	}{
		{"Invalidate", func(r *Registry) { r.Invalidate() },
			func(f *deltaFleet, _ []NodeEpoch) bool { return f.fullCalls == 2 && f.deltaCalls == 1 }},
		{"InvalidateNode", func(r *Registry) { r.InvalidateNode("node-1") },
			func(f *deltaFleet, known []NodeEpoch) bool {
				return f.fullCalls == 1 && f.deltaCalls == 2 && known[1].Epoch == 0 && known[0].Epoch == 1
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newDeltaFleet(3)
			entered, release := make(chan struct{}), make(chan struct{})
			var lastKnown []NodeEpoch
			r := newTestRegistry(t, f.fetch, func(ctx context.Context, known []NodeEpoch) ([]Delta, error) {
				if lastKnown == nil {
					close(entered)
					<-release
				}
				lastKnown = known
				return f.fetchDelta(ctx, known)
			})
			ctx := context.Background()
			if _, err := r.Snapshot(ctx); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := r.Refresh(ctx)
				done <- err
			}()
			<-entered
			tc.invalidate(r)
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !r.Stats().Stale || r.ReuseEpoch() != r.Epoch()+1 {
				t.Fatalf("in-flight refresh erased the invalidation: %+v", r.Stats())
			}
			if _, err := r.Snapshot(ctx); err != nil {
				t.Fatal(err)
			}
			if !tc.honoured(f, lastKnown) {
				t.Fatalf("%d full + %d delta fetches, last known %v", f.fullCalls, f.deltaCalls, lastKnown)
			}
			if r.Stats().Stale || r.ReuseEpoch() != r.Epoch() {
				t.Fatalf("still stale after the covering refresh: %+v", r.Stats())
			}
			if _, err := r.Snapshot(ctx); err != nil || f.fullCalls+f.deltaCalls != 3 {
				t.Fatalf("steady-state Snapshot fetched again: %v", err)
			}
		})
	}
}

// TestRegistryUnchangedTickKeepsEpoch: anti-entropy ticks over a fleet
// where every node answers "unchanged" keep the published snapshot and
// its epoch, so epoch-keyed caches survive them; a tick that sees one
// bumped node publishes the next epoch, and only that one.
func TestRegistryUnchangedTickKeepsEpoch(t *testing.T) {
	f := newDeltaFleet(4)
	r := f.registry(t)
	s1, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r.StartRefresh(time.Millisecond)
	defer r.Stop()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, r.Stats())
			}
		}
	}
	waitFor("three ticks", func() bool { return r.Stats().DeltaRefreshes >= 3 })
	if cur, _ := r.Current(); cur != s1 || r.Epoch() != s1.Epoch || r.ReuseEpoch() != s1.Epoch {
		t.Fatalf("unchanged ticks republished: epoch %d -> %d", s1.Epoch, r.Epoch())
	}
	if st := r.Stats(); st.NodesReused != 4*st.DeltaRefreshes || st.NodesRefetched != 0 || st.IndexPatches != 0 {
		t.Fatalf("unchanged tick accounting: %+v", st)
	}

	f.bump(2)
	waitFor("the bumped node's epoch", func() bool { return r.Epoch() == s1.Epoch+1 })
	r.Stop()
	if cur, _ := r.Current(); cur.NodeSummaryEpoch("node-2") != 2 || cur.Epoch != s1.Epoch+1 || r.Epoch() != s1.Epoch+1 {
		t.Fatalf("bump tick: node-2 epoch %d, registry epoch %d -> %d, want one publication", cur.NodeSummaryEpoch("node-2"), s1.Epoch, r.Epoch())
	}
}
