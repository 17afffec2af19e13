package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

// TestConcurrentExecute hammers one leader from many goroutines mixing
// plain and cache-fronted Execute with concurrent Rounds — the contract
// the gateway's worker pool and the region tier depend on. Run under -race (make check does)
// this validates the shared-RNG locking and the summary/warm-up cache
// guards.
func TestConcurrentExecute(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	rnd := selection.Random{L: 2}

	// A spread of overlapping queries so the reuse cache sees both
	// hits and misses concurrently.
	queries := make([]query.Query, 6)
	for i := range queries {
		lo := float64(5 * i)
		q, err := query.New(fmt.Sprintf("q-%d", i),
			geometry.MustRect([]float64{lo, -50}, []float64{lo + 30, 150}))
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries[(g+i)%len(queries)]
				var err error
				switch (g + i) % 4 {
				case 0:
					_, err = execute(fleet.Leader, q, sel, WeightedAveraging)
				case 1:
					err = concurrentRound(fleet.Leader, q, sel)
				case 2:
					_, _, err = executeCached(fleet.Leader, cache, q, sel, WeightedAveraging)
				case 3:
					_, err = execute(fleet.Leader, q, rnd, ModelAveraging)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): %w", g, i, q.ID, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// concurrentRound plans q and trains its participants in one
// concurrent Round, the way a regional leader does.
func concurrentRound(l *Leader, q query.Query, sel selection.Selector) error {
	ctx := context.Background()
	pl, err := l.PlanContext(ctx, q, sel)
	if err != nil {
		return err
	}
	defer pl.Release()
	model, err := l.cfg.Spec.New()
	if err != nil {
		return err
	}
	for _, o := range l.Round(ctx, RoundRequest{
		Spec: l.cfg.Spec, Params: model.Params(), Participants: pl.CopyParticipants(), Concurrent: true,
	}) {
		if o.Err != nil {
			return fmt.Errorf("round on %s: %w", o.NodeID, o.Err)
		}
	}
	return nil
}

// TestConcurrentExecuteWithColdCaches starts every goroutine before
// the summary/warm-up caches are populated, so the lazy fetch itself
// races unless serialized.
func TestConcurrentExecuteWithColdCaches(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.GameTheory{L: 2} // exercises the warm-up path too
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := execute(fleet.Leader, q, sel, ModelAveraging); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestExecuteExpiredContext: an already-expired deadline must return
// the context error without touching the fleet, whatever the request
// shape; a Round handed the dead context trains nobody either.
func TestExecuteExpiredContext(t *testing.T) {
	fleet := testFleet(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	cache, err := NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"single round": {},
		"cached":       {Cache: cache},
	} {
		req.Query, req.Selector, req.Aggregation = midQuery(t), selection.AllNodes{}, ModelAveraging
		start := time.Now()
		if _, _, err := fleet.Leader.Execute(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if time.Since(start) > time.Second {
			t.Fatalf("%s: expired query did not return promptly", name)
		}
	}

	model, err := fleet.Leader.cfg.Spec.New()
	if err != nil {
		t.Fatal(err)
	}
	round := RoundRequest{
		Spec:         fleet.Leader.cfg.Spec,
		Params:       model.Params(),
		Participants: []selection.Participant{{NodeID: "node-0"}, {NodeID: "node-1"}},
	}
	if outs := fleet.Leader.Round(ctx, round); outs != nil {
		t.Fatalf("sequential round on a dead context returned %d outcomes, want nil", len(outs))
	}
	round.Concurrent = true
	outs := fleet.Leader.Round(ctx, round)
	if len(outs) != 2 {
		t.Fatalf("concurrent round returned %d outcomes, want 2", len(outs))
	}
	for _, o := range outs {
		if !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", o.NodeID, o.Err)
		}
	}
}

// TestExecuteCancelMidQuery: cancellation between training
// rounds aborts the remaining participants.
func TestExecuteCancelMidQuery(t *testing.T) {
	fleet := testFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// LocalClient checks ctx before each round; with a canceled ctx
	// selection itself may run but no training must complete.
	res, _, err := fleet.Leader.Execute(ctx, Request{Query: midQuery(t), Selector: selection.AllNodes{}, Aggregation: ModelAveraging})
	if err == nil {
		t.Fatalf("expected error, got result with %d params", len(res.LocalParams))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
