package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// stubExecutor is a controllable Executor: it blocks while gate is
// held (gate may be nil for instant completion), counts executions,
// and honors context cancellation — exactly the contract
// federation.Leader.Execute provides.
type stubExecutor struct {
	gate    chan struct{} // when non-nil, execution blocks until the gate closes
	started chan struct{} // when non-nil, receives one token per execution start
	calls   atomic.Int64
	err     error
}

func (e *stubExecutor) Execute(ctx context.Context, req federation.Request) (*federation.Result, federation.ServeKind, error) {
	e.calls.Add(1)
	if e.started != nil {
		e.started <- struct{}{}
	}
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, federation.ServeFresh, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, federation.ServeFresh, err
	}
	if e.err != nil {
		return nil, federation.ServeFresh, e.err
	}
	return &federation.Result{
		Query:    req.Query,
		Selector: req.Selector.Name(),
		Ensemble: &federation.Ensemble{},
	}, federation.ServeFresh, nil
}

// work is the scheduler Request for (q, sel).
func work(q query.Query, sel selection.Selector) Request {
	return Request{Request: federation.Request{Query: q, Selector: sel}}
}

func testQuery(t *testing.T, id string, lo float64) query.Query {
	t.Helper()
	q, err := query.New(id, geometry.MustRect([]float64{lo, 0}, []float64{lo + 10, 10}))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = &telemetry.Registry{}
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSchedulerSubmitWait(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestScheduler(t, Config{Workers: 2, QueueDepth: 4, Executor: exec})
	tk, err := s.Submit(context.Background(), work(testQuery(t, "q1", 0), selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Query.ID != "q1" || out.Coalesced || out.Kind.Reused() {
		t.Fatalf("unexpected outcome %+v", out)
	}
	st := s.SchedStats()
	if st.Admitted != 1 || st.CompletedOK != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedulerQueueFull fills the single worker and the queue, then
// expects ErrQueueFull — deterministically, because the gate blocks
// the worker.
func TestSchedulerQueueFull(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	exec := &stubExecutor{gate: gate, started: started}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 2, Executor: exec})

	var tickets []*Ticket
	// Occupy the single worker...
	tk0, err := s.Submit(context.Background(), work(testQuery(t, "q0", 0), selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	tickets = append(tickets, tk0)
	<-started // the worker is now blocked inside the executor
	// ...then fill the queue to capacity.
	for i := 1; i <= 2; i++ {
		tk, err := s.Submit(context.Background(), work(testQuery(t, fmt.Sprintf("q%d", i), float64(100*i)), selection.AllNodes{}))
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	// Worker busy + queue full: the next submission must be shed.
	if _, err := s.Submit(context.Background(), work(testQuery(t, "overflow", 999), selection.AllNodes{})); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if s.SchedStats().RejectedFull == 0 {
		t.Fatal("rejection not counted")
	}
	close(gate)
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerCoalesce: identical concurrent queries share one
// execution.
func TestSchedulerCoalesce(t *testing.T) {
	gate := make(chan struct{})
	exec := &stubExecutor{gate: gate}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, CoalesceIoU: 0.95, Executor: exec})

	q := testQuery(t, "orig", 0)
	tk1, err := s.Submit(context.Background(), work(q, selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	// Same bounds, different id: must attach to the live task.
	tk2, err := s.Submit(context.Background(), work(testQuery(t, "dup", 0), selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	if !tk2.Coalesced {
		t.Fatal("identical concurrent query not coalesced")
	}
	// Different selector must NOT coalesce.
	tk3, err := s.Submit(context.Background(), work(testQuery(t, "othersel", 0), selection.Random{L: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if tk3.Coalesced {
		t.Fatal("different selector coalesced")
	}
	// Disjoint bounds must NOT coalesce.
	tk4, err := s.Submit(context.Background(), work(testQuery(t, "far", 500), selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	if tk4.Coalesced {
		t.Fatal("disjoint query coalesced")
	}
	close(gate)
	out1, err := tk1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out2, err := tk2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out1.Result != out2.Result {
		t.Fatal("coalesced waiters saw different results")
	}
	if _, err := tk3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := tk4.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := exec.calls.Load(); got != 3 {
		t.Fatalf("executor ran %d times, want 3 (dup coalesced)", got)
	}
	if s.SchedStats().Coalesced != 1 {
		t.Fatalf("coalesced counter %d, want 1", s.SchedStats().Coalesced)
	}
}

// TestSchedulerExpiredSubmit: a dead context is rejected before
// touching the queue.
func TestSchedulerExpiredSubmit(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 1, Executor: exec})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := s.Submit(ctx, work(testQuery(t, "late", 0), selection.AllNodes{}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("expired submission did not return promptly")
	}
	if exec.calls.Load() != 0 {
		t.Fatal("expired submission reached the executor")
	}
	if s.SchedStats().RejectedExp != 1 {
		t.Fatal("expired rejection not counted")
	}
}

// TestSchedulerExecutionTimeout: the per-request budget cancels a
// stuck execution and surfaces DeadlineExceeded.
func TestSchedulerExecutionTimeout(t *testing.T) {
	gate := make(chan struct{}) // never closed: execution hangs
	exec := &stubExecutor{gate: gate}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 1, Executor: exec})
	slow := work(testQuery(t, "slow", 0), selection.AllNodes{})
	slow.Deadline = time.Now().Add(50 * time.Millisecond)
	tk, err := s.Submit(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if s.SchedStats().CompletedTime != 1 {
		t.Fatal("timeout not counted")
	}
}

// TestSchedulerWaiterAbandons: a waiter's context expiring does not
// cancel the shared task.
func TestSchedulerWaiterAbandons(t *testing.T) {
	gate := make(chan struct{})
	exec := &stubExecutor{gate: gate}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 1, Executor: exec})
	tk, err := s.Submit(context.Background(), work(testQuery(t, "q", 0), selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want waiter deadline", err)
	}
	close(gate)
	// The task itself still completes successfully.
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDrain: draining rejects new work, finishes queued work,
// and releases the workers.
func TestSchedulerDrain(t *testing.T) {
	gate := make(chan struct{})
	exec := &stubExecutor{gate: gate}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, Executor: exec})
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := s.Submit(context.Background(), work(testQuery(t, fmt.Sprintf("q%d", i), float64(100*i)), selection.AllNodes{}))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must flip admission off promptly even while work is
	// blocked on the gate.
	draining := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	}
	deadline := time.Now().Add(2 * time.Second)
	for !draining() {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), work(testQuery(t, "late", 900), selection.AllNodes{})); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("queued work dropped during drain: %v", err)
		}
	}
	if s.SchedStats().CompletedOK != 3 {
		t.Fatalf("completed %d, want 3", s.SchedStats().CompletedOK)
	}
}

// TestSchedulerDrainTimeout: a drain deadline cancels stuck work
// instead of hanging forever.
func TestSchedulerDrainTimeout(t *testing.T) {
	gate := make(chan struct{}) // never closed
	exec := &stubExecutor{gate: gate}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 1, Executor: exec})
	tk, err := s.Submit(context.Background(), work(testQuery(t, "stuck", 0), selection.AllNodes{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline", err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("stuck task err = %v, want context.Canceled", err)
	}
}

// TestSchedulerConcurrentSubmit hammers Submit/Wait from many
// goroutines (run under -race by make check).
func TestSchedulerConcurrentSubmit(t *testing.T) {
	exec := &stubExecutor{}
	s := newTestScheduler(t, Config{Workers: 4, QueueDepth: 64, CoalesceIoU: 0.95, Executor: exec})
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				tk, err := s.Submit(context.Background(), work(testQuery(t, fmt.Sprintf("g%d-i%d", g, i), float64(20*(i%4))), selection.AllNodes{}))
				if errors.Is(err, ErrQueueFull) {
					continue // legitimate shed under burst
				}
				if err != nil {
					errs <- err
					return
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					errs <- err
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
	st := s.SchedStats()
	if st.CompletedOK != st.Admitted {
		t.Fatalf("admitted %d but completed %d", st.Admitted, st.CompletedOK)
	}
}

// TestSchedulerSubmitWaitAllocs pins what one query costs the scheduler
// from Submit to Wait on a stub executor (whose own Result is counted
// too): one deadline context fixed at admission, the task with its
// ticket inline, the Outcome, and no goroutine or second deadline.
func TestSchedulerSubmitWaitAllocs(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, Executor: &stubExecutor{}})
	req := work(testQuery(t, "q", 0), selection.AllNodes{})
	ctx := context.Background()
	run := func() {
		tk, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(100, run); got > 9 {
		t.Fatalf("Submit→Wait allocates %.1f per query, budget 9", got)
	}
}

// TestSchedulerDeadlineFixedAtAdmission: a submission's budget runs
// from Submit. A task still queued at its deadline is given up on by
// its waiter while the worker is busy elsewhere; a coalesced ticket
// whose deadline is earlier than its task's expires on its own deadline
// while the task runs on; and every submission's Done hook still gets
// the task's outcome when the task completes.
func TestSchedulerDeadlineFixedAtAdmission(t *testing.T) {
	gate := make(chan struct{})
	exec := &stubExecutor{gate: gate, started: make(chan struct{}, 4)}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, CoalesceIoU: 0.95, Executor: exec})
	var mu sync.Mutex
	var hooks sync.WaitGroup
	outcomes := map[string]error{}
	submit := func(id string, lo float64, timeout time.Duration) *Ticket {
		req := work(testQuery(t, id, lo), selection.AllNodes{})
		req.Deadline = time.Now().Add(timeout)
		hooks.Add(1)
		req.Done = func(_ Outcome, err error) {
			mu.Lock()
			outcomes[id] = err
			mu.Unlock()
			hooks.Done()
		}
		tk, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	held := submit("held", 0, time.Minute)
	<-exec.started
	follower := submit("follower", 0, 50*time.Millisecond) // coalesces onto held
	queued := submit("queued", 500, 50*time.Millisecond)   // waits behind held
	if !follower.Coalesced || queued.Coalesced {
		t.Fatalf("coalesced: follower %v, queued %v", follower.Coalesced, queued.Coalesced)
	}
	for name, tk := range map[string]*Ticket{"follower": follower, "queued": queued} {
		start := time.Now()
		if _, err := tk.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: waited %v past a 50ms budget", name, elapsed)
		}
	}
	close(gate)
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatalf("held: %v", err)
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued after its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	hooks.Wait() // the queued task completes once a worker reaches it
	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 3 || outcomes["held"] != nil || outcomes["follower"] != nil || !errors.Is(outcomes["queued"], context.DeadlineExceeded) {
		t.Fatalf("Done hooks saw %v: want held and follower answered, queued expired", outcomes)
	}
}

// TestSchedulerPeerOutlivesQueuedOriginator: a submission that
// coalesces onto a queued task whose originator's budget already ran
// out is still answered once a worker reaches the task, under its own
// deadline, while the originator's waiter has given up.
func TestSchedulerPeerOutlivesQueuedOriginator(t *testing.T) {
	gate := make(chan struct{})
	exec := &stubExecutor{gate: gate, started: make(chan struct{}, 4)}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, CoalesceIoU: 0.95, Executor: exec})
	submit := func(id string, lo float64, timeout time.Duration) *Ticket {
		req := work(testQuery(t, id, lo), selection.AllNodes{})
		req.Deadline = time.Now().Add(timeout)
		tk, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	held := submit("held", 500, time.Minute)
	<-exec.started
	a := submit("a", 0, 50*time.Millisecond)
	if _, err := a.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a: err = %v, want context.DeadlineExceeded", err)
	}
	b := submit("b", 0, time.Minute)
	if !b.Coalesced {
		t.Fatal("b did not coalesce onto the queued a")
	}
	close(gate)
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatalf("held: %v", err)
	}
	out, err := b.Wait(context.Background())
	if err != nil {
		t.Fatalf("b: err = %v, want the answer", err)
	}
	if out.Result == nil || !out.Coalesced {
		t.Fatalf("b: outcome %+v", out)
	}
}

// TestSchedulerWaitAfterCompletion: an originator that waits only after
// its task finished, under a later peer's deadline, gets the answer on
// every Wait, although run cancels the task's context once done closes.
func TestSchedulerWaitAfterCompletion(t *testing.T) {
	gate := make(chan struct{})
	exec := &stubExecutor{gate: gate, started: make(chan struct{}, 4)}
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, CoalesceIoU: 0.95, Executor: exec})
	submit := func(id string, lo float64, timeout time.Duration) *Ticket {
		req := work(testQuery(t, id, lo), selection.AllNodes{})
		req.Deadline = time.Now().Add(timeout)
		tk, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	held := submit("held", 500, time.Minute)
	<-exec.started
	orig := submit("orig", 0, time.Minute)
	if peer := submit("peer", 0, 2*time.Minute); !peer.Coalesced {
		t.Fatal("peer did not coalesce onto the queued orig")
	}
	close(gate)
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatalf("held: %v", err)
	}
	<-orig.t.ctx.Done() // canceled by run right after done closed
	for i := 0; i < 20; i++ {
		if _, err := orig.Wait(context.Background()); err != nil {
			t.Fatalf("wait %d after completion: %v", i, err)
		}
	}
}
