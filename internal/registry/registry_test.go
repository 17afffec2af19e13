package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// fleet builds n synthetic single-cluster advertisements with the given
// per-node epoch.
func fleet(n int, epoch uint64) []cluster.NodeSummary {
	out := make([]cluster.NodeSummary, n)
	for i := range out {
		lo := float64(i)
		out[i] = cluster.NodeSummary{
			NodeID: fmt.Sprintf("node-%d", i),
			Clusters: []cluster.Summary{{
				Bounds:   geometry.MustRect([]float64{lo, lo}, []float64{lo + 1, lo + 1}),
				Centroid: []float64{lo + 0.5, lo + 0.5},
				Size:     10,
			}},
			TotalSamples: 10,
			Epoch:        epoch,
		}
	}
	return out
}

// newTestRegistry is the one adapter between the hand-written fetchers
// the tests use and FetchFunc: full answers a pull that knows nothing
// (known == nil), delta every conditional one. Without a delta fetcher
// the fleet behaves like clients lacking the epoch-conditional
// capability — every pull ships every body.
func newTestRegistry(t *testing.T, full func(context.Context) ([]cluster.NodeSummary, error), delta FetchFunc) *Registry {
	t.Helper()
	r, err := New(func(ctx context.Context, known []NodeEpoch) ([]Delta, error) {
		if known != nil && delta != nil {
			return delta(ctx, known)
		}
		summaries, err := full(ctx)
		if err != nil {
			return nil, err
		}
		out := make([]Delta, len(summaries))
		for i, s := range summaries {
			out[i] = Delta{NodeID: s.NodeID, Summary: s}
		}
		return out, nil
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestRegistryLifecycle(t *testing.T) {
	var fetches atomic.Int64
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		fetches.Add(1)
		return fleet(3, 7), nil
	}, nil)

	if _, ok := r.Current(); ok {
		t.Fatal("Current reported a snapshot before any refresh")
	}
	if got := r.Epoch(); got != 0 {
		t.Fatalf("Epoch before refresh = %d", got)
	}
	if got := r.ReuseEpoch(); got != 1 {
		t.Fatalf("ReuseEpoch before refresh = %d, want 1", got)
	}

	s, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s.Epoch != 1 || len(s.Nodes) != 3 || s.Dims != 2 || s.TotalClusters != 3 || s.TotalSamples != 30 {
		t.Fatalf("bad first snapshot: %+v", s)
	}
	if got := s.NodeSummaryEpoch("node-1"); got != 7 {
		t.Fatalf("NodeSummaryEpoch = %d, want 7", got)
	}
	if got := s.NodeSummaryEpoch("nope"); got != 0 {
		t.Fatalf("NodeSummaryEpoch(unknown) = %d", got)
	}
	if g := s.Node("node-2"); g != &s.Nodes[2] {
		t.Fatalf("Node(node-2) = %p, want &Nodes[2] %p", g, &s.Nodes[2])
	}
	if g := s.Node("nope"); g != nil {
		t.Fatalf("Node(unknown) = %+v", g)
	}

	// Steady state: no re-fetch, same pointer, ReuseEpoch == Epoch.
	s2, err := r.Snapshot(context.Background())
	if err != nil || s2 != s {
		t.Fatalf("steady-state Snapshot refetched: %v %p %p", err, s, s2)
	}
	if fetches.Load() != 1 {
		t.Fatalf("fetches = %d, want 1", fetches.Load())
	}
	if r.ReuseEpoch() != 1 {
		t.Fatalf("steady ReuseEpoch = %d", r.ReuseEpoch())
	}

	// Invalidate → ReuseEpoch advances, next Snapshot bumps epoch.
	r.Invalidate()
	if r.ReuseEpoch() != 2 {
		t.Fatalf("stale ReuseEpoch = %d, want 2", r.ReuseEpoch())
	}
	s3, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot after Invalidate: %v", err)
	}
	if s3.Epoch != 2 || fetches.Load() != 2 {
		t.Fatalf("epoch %d fetches %d after invalidate", s3.Epoch, fetches.Load())
	}
	if r.ReuseEpoch() != 2 {
		t.Fatalf("post-refresh ReuseEpoch = %d", r.ReuseEpoch())
	}

	st := r.Stats()
	if st.Epoch != 2 || st.Stale || st.Refreshes != 2 || st.Invalidations != 1 || st.Nodes != 3 {
		t.Fatalf("bad stats: %+v", st)
	}
}

func TestRegistryFetchErrorKeepsOldSnapshot(t *testing.T) {
	fail := atomic.Bool{}
	sentinel := errors.New("fleet down")
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		if fail.Load() {
			return nil, sentinel
		}
		return fleet(1, 0), nil
	}, nil)
	s, err := r.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	fail.Store(true)
	r.Invalidate()
	if _, err := r.Snapshot(context.Background()); !errors.Is(err, sentinel) {
		t.Fatalf("expected fetch error, got %v", err)
	}
	// The old snapshot is still readable (Current) even though stale.
	if cur, ok := r.Current(); !ok || cur != s {
		t.Fatal("Current lost the last good snapshot after a failed refresh")
	}
	// Recovery: fetch works again, epoch bumps.
	fail.Store(false)
	s2, err := r.Snapshot(context.Background())
	if err != nil || s2.Epoch != 2 {
		t.Fatalf("recovery snapshot: %v %+v", err, s2)
	}
}

func TestRegistrySignalNodeEpoch(t *testing.T) {
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		return fleet(2, 5), nil
	}, nil)
	if r.SignalNodeEpoch("node-0", 9) {
		t.Fatal("drift detected before any snapshot")
	}
	if _, err := r.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.SignalNodeEpoch("node-0", 0) {
		t.Fatal("epoch 0 must never signal drift")
	}
	if r.SignalNodeEpoch("node-0", 5) {
		t.Fatal("equal epoch is not drift")
	}
	if r.SignalNodeEpoch("unknown", 9) {
		t.Fatal("unknown node is not drift")
	}
	if !r.SignalNodeEpoch("node-0", 6) {
		t.Fatal("newer node epoch must signal drift")
	}
	if got := r.Stats(); !got.Stale || got.Invalidations != 1 {
		t.Fatalf("drift did not invalidate: %+v", got)
	}
}

func TestRegistryValidation(t *testing.T) {
	cases := []struct {
		name      string
		summaries []cluster.NodeSummary
	}{
		{"empty", nil},
		{"duplicate", append(fleet(1, 0), fleet(1, 0)...)},
		{"invalid", []cluster.NodeSummary{{NodeID: "x"}}},
		{"dims", []cluster.NodeSummary{
			fleet(1, 0)[0],
			{
				NodeID: "odd",
				Clusters: []cluster.Summary{{
					Bounds: geometry.MustRect([]float64{0}, []float64{1}),
					Size:   1,
				}},
				TotalSamples: 1,
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
				return tc.summaries, nil
			}, nil)
			if _, err := r.Snapshot(context.Background()); err == nil {
				t.Fatal("expected validation error")
			}
			if r.Epoch() != 0 {
				t.Fatal("epoch advanced on failed publish")
			}
		})
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil fetch accepted")
	}
}

// TestRegistryConcurrency races parallel readers (Snapshot/Current/
// ReuseEpoch) against invalidations, drift signals and an aggressive
// background refresher. Run under -race; the invariants checked are
// epoch monotonicity per goroutine and snapshot immutability.
func TestRegistryConcurrency(t *testing.T) {
	var fetchEpoch atomic.Uint64
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		return fleet(4, fetchEpoch.Add(1)), nil
	}, nil)
	r.StartRefresh(100 * time.Microsecond)
	defer r.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: plan-like loop over snapshots.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := r.Snapshot(context.Background())
				if err != nil {
					t.Errorf("Snapshot: %v", err)
					return
				}
				if s.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d -> %d", lastEpoch, s.Epoch)
					return
				}
				lastEpoch = s.Epoch
				// Touch the geometry like the planner does.
				for _, n := range s.Nodes {
					if len(n.Mins) != len(n.Maxs) || len(n.Mins) != s.Dims*len(n.Sizes) {
						t.Errorf("corrupt snapshot geometry for %s", n.NodeID)
						return
					}
				}
				_ = r.ReuseEpoch()
				if cur, ok := r.Current(); ok && cur.Epoch < s.Epoch {
					// Current may trail our refreshed snapshot only if
					// another publisher won; it must never be behind
					// what was already published when we loaded it.
					_ = cur
				}
			}
		}()
	}
	// Invalidators and drift signalers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := uint64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					r.Invalidate()
				} else {
					r.SignalNodeEpoch("node-1", i)
				}
				i++
			}
		}(g)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if r.Epoch() == 0 {
		t.Fatal("no refresh ever published")
	}
}

func TestStartRefreshRestartAndStop(t *testing.T) {
	r := newTestRegistry(t, func(ctx context.Context) ([]cluster.NodeSummary, error) {
		return fleet(1, 0), nil
	}, nil)
	r.StartRefresh(time.Millisecond)
	r.StartRefresh(time.Millisecond) // restart must not leak or deadlock
	time.Sleep(5 * time.Millisecond)
	r.Stop()
	r.Stop() // idempotent
	if r.Epoch() == 0 {
		t.Fatal("background refresher never published")
	}
}
