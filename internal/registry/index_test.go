package registry

import (
	"context"
	"testing"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// collectIndex probes the snapshot index and returns the matched roster
// indices.
func collectIndex(t *testing.T, s *Snapshot, probe geometry.Rect) map[int]bool {
	t.Helper()
	got := map[int]bool{}
	err := s.Index.Search(probe, func(e geometry.Entry) bool {
		got[e.ID] = true
		return true
	})
	if err != nil {
		t.Fatalf("Index.Search: %v", err)
	}
	return got
}

func TestSnapshotIndex(t *testing.T) {
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		return fleet(8, 1), nil
	}, nil)
	s, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s.Index == nil {
		t.Fatal("snapshot has no node index")
	}
	if got := s.Index.Len(); got != 8 {
		t.Fatalf("Index.Len = %d, want 8", got)
	}
	if got := s.Index.Dims(); got != 2 {
		t.Fatalf("Index.Dims = %d, want 2", got)
	}
	if len(s.NodeBounds) != len(s.Nodes) {
		t.Fatalf("NodeBounds has %d rects for %d nodes", len(s.NodeBounds), len(s.Nodes))
	}

	// The fleet helper places node i's single cluster at [i, i+1]^2, so
	// a probe over [2.5, 4.5]^2 must match exactly nodes 2, 3 and 4.
	got := collectIndex(t, s, geometry.MustRect([]float64{2.5, 2.5}, []float64{4.5, 4.5}))
	want := map[int]bool{2: true, 3: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("probe matched %v, want %v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("probe missed roster index %d (got %v)", id, got)
		}
	}

	// A disjoint probe matches nothing.
	if got := collectIndex(t, s, geometry.MustRect([]float64{100, 100}, []float64{101, 101})); len(got) != 0 {
		t.Fatalf("disjoint probe matched %v", got)
	}
}

// TestSnapshotIndexCoversAllClusters checks the indexed rectangle is the
// union of a node's cluster bounds, not just its first cluster.
func TestSnapshotIndexCoversAllClusters(t *testing.T) {
	summary := cluster.NodeSummary{
		NodeID: "node-0",
		Clusters: []cluster.Summary{
			{Bounds: geometry.MustRect([]float64{0, 0}, []float64{1, 1}), Centroid: []float64{0.5, 0.5}, Size: 5},
			{Bounds: geometry.MustRect([]float64{9, 9}, []float64{10, 10}), Centroid: []float64{9.5, 9.5}, Size: 5},
		},
		TotalSamples: 10,
	}
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		return []cluster.NodeSummary{summary}, nil
	}, nil)
	s, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// The second cluster sits at [9,10]^2; a probe there must match the
	// node through its covering rect.
	if got := collectIndex(t, s, geometry.MustRect([]float64{9.2, 9.2}, []float64{9.8, 9.8})); !got[0] {
		t.Fatalf("probe over second cluster missed the node: %v", got)
	}
	want := geometry.MustRect([]float64{0, 0}, []float64{10, 10})
	if !s.NodeBounds[0].ContainsRect(want) || !want.ContainsRect(s.NodeBounds[0]) {
		t.Fatalf("NodeBounds[0] = %v, want %v", s.NodeBounds[0], want)
	}
}

// TestSnapshotIndexRebuildOnEpoch checks a refresh publishes a freshly
// built index reflecting the new advertisements.
func TestSnapshotIndexRebuildOnEpoch(t *testing.T) {
	shift := 0.0
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		out := fleet(3, 1)
		for i := range out {
			b := &out[i].Clusters[0].Bounds
			for d := range b.Min {
				b.Min[d] += shift
				b.Max[d] += shift
			}
		}
		return out, nil
	}, nil)
	s1, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	probe := geometry.MustRect([]float64{0.1, 0.1}, []float64{0.9, 0.9})
	if got := collectIndex(t, s1, probe); !got[0] {
		t.Fatalf("epoch-1 index missed node 0: %v", got)
	}

	// Move the whole fleet far away and invalidate: the next snapshot
	// must carry a new index over the shifted geometry.
	shift = 50
	r.Invalidate()
	s2, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot after invalidate: %v", err)
	}
	if s2.Epoch <= s1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", s1.Epoch, s2.Epoch)
	}
	if s2.Index == s1.Index {
		t.Fatal("refresh reused the previous snapshot's index")
	}
	if got := collectIndex(t, s2, probe); len(got) != 0 {
		t.Fatalf("epoch-%d index still matches the old geometry: %v", s2.Epoch, got)
	}
	if got := collectIndex(t, s2, geometry.MustRect([]float64{50.1, 50.1}, []float64{50.9, 50.9})); !got[0] {
		t.Fatalf("epoch-%d index missed the shifted node 0: %v", s2.Epoch, got)
	}
}
