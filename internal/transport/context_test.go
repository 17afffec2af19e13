package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qens/internal/federation"
	"qens/internal/ml"
)

// TestCanceledContextFailsFast: a pre-canceled context must short-
// circuit before any wire traffic and surface context.Canceled.
func TestCanceledContextFailsFast(t *testing.T) {
	_, client := startServer(t, 31, 2, 0, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := client.Summary(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled call took %v, want prompt return", elapsed)
	}
}

// TestExpiredDeadlineFailsFast: a deadline already in the past must
// return context.DeadlineExceeded without retry loops.
func TestExpiredDeadlineFailsFast(t *testing.T) {
	_, client := startServer(t, 32, 2, 0, 50)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := client.Train(ctx, federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextDeadlinePropagatesToConn: a deadline shorter than the
// client timeout must bound the round-trip; we point the client at a
// listener that accepts but never responds, so only the context
// deadline can release the call.
func TestContextDeadlinePropagatesToConn(t *testing.T) {
	srv, _ := startServer(t, 33, 2, 0, 50)
	// Dial with a long client timeout; the per-call ctx must win.
	client, err := Dial(srv.Addr(), DialOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Stop the daemon from answering further requests by closing it;
	// the next round-trip blocks on a dead conn until the deadline.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Summary(ctx)
	if err == nil {
		t.Fatal("expected error after daemon close")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ctx-bounded call took %v", elapsed)
	}
}

// TestCancelMidFlight: cancellation while a round-trip is blocked must
// abort the exchange promptly (the client slams the conn deadline).
func TestCancelMidFlight(t *testing.T) {
	srv, client := startServer(t, 34, 2, 0, 50)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	// A long training request gives the cancel goroutine time to fire
	// while the client waits on the response frame.
	start := time.Now()
	_, err := client.Train(ctx, federation.TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 500})
	if err == nil {
		// Training may legitimately win the race on fast machines.
		t.Skip("training finished before cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled round-trip took %v", elapsed)
	}
}

// TestCallTimeoutBranches covers both ways a stalled call ends. With a
// context deadline due before the client timeout, no timer is armed
// and the call returns the context's error; without a deadline, the
// client timeout still fires with its own error.
func TestCallTimeoutBranches(t *testing.T) {
	srv, _ := startServer(t, 35, 2, 0, 50)
	release := make(chan struct{})
	hold := func() { <-release }
	stall := func(timeout time.Duration) *Client {
		client, err := Dial(srv.Addr(), DialOptions{Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return client
	}
	short, long := stall(100*time.Millisecond), stall(time.Minute)
	srv.gate.Store(&hold)
	defer func() {
		srv.gate.Store(nil)
		close(release)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := long.Summary(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline before the timeout: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded call took %v", elapsed)
	}

	if _, err := short.Summary(context.Background()); err == nil || !strings.Contains(err.Error(), "timed out after 100ms") {
		t.Fatalf("no deadline: err = %v, want the client timeout", err)
	}
}

// TestTrainRoundTripAllocBudget pins what a warm loopback Train round
// trip under a deadline-bearing context allocates, client and server
// together: the wire deadline rides to the engine as a pooled value, no
// timer, the reply channel is pooled, and the params dims and the node
// id come from shared tables instead of being decoded afresh.
func TestTrainRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, client := startServer(t, 36, 2, 0, 50)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := federation.TrainRequest{Spec: ml.PaperLR(1), Clusters: []int{0, 1, 2}, LocalEpochs: 1}
	train := func() {
		if _, err := client.Train(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	train()
	if got := testing.AllocsPerRun(100, train); got > 13 {
		t.Fatalf("a warm Train round trip allocates %.1f, budget 13", got)
	}
}

// rpcErrors collects the err= field of every train RPC line srv logs.
func rpcErrors(srv *Server) func() []string {
	var mu sync.Mutex
	var errs []string
	srv.SetLogger(func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if _, e, ok := strings.Cut(line, " err="); ok && strings.Contains(line, "type=train") {
			mu.Lock()
			errs = append(errs, e)
			mu.Unlock()
		}
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(errs)
	}
}

// awaitRPCError waits up to limit for a logged train error containing
// want.
func awaitRPCError(t *testing.T, logged func() []string, want string, limit time.Duration) {
	t.Helper()
	for end := time.Now().Add(limit); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		for _, e := range logged() {
			if strings.Contains(e, want) {
				return
			}
		}
	}
	t.Fatalf("no train RPC failed with %q within %v; logged %q", want, limit, logged())
}

// longFit is a train request whose fit runs far longer than any test:
// only a deadline or the server's shutdown ends it.
var longFit = federation.TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 1 << 20}

// TestWireDeadlineExpiresWhileQueued: an RPC queued behind a held
// engine slot gives up at its wire deadline. The caller gets
// DeadlineExceeded promptly, and the daemon drops the queued job then,
// not when the slot frees.
func TestWireDeadlineExpiresWhileQueued(t *testing.T) {
	srv, client := startBoundedServer(t, 37, 1)
	logged := rpcErrors(srv)
	holdCtx, release := context.WithTimeout(context.Background(), 10*time.Second)
	defer release()
	go func() { _, _ = client.Train(holdCtx, longFit) }()
	for end := time.Now().Add(5 * time.Second); srv.TrainInflight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the slot holder never started")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Train(ctx, federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued train: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("queued train returned after %v", elapsed)
	}
	awaitRPCError(t, logged, "queued for train slot: context deadline exceeded", 2*time.Second)
	if srv.TrainInflight() != 1 {
		t.Fatal("the slot holder finished: the queued job was never tested against a held slot")
	}
}

// TestWireDeadlineExpiresMidFit: a fit whose wire deadline passes
// mid-fit stops within pollEvery mini-batch boundaries. The caller gets
// DeadlineExceeded promptly, and the daemon's engine slot frees then.
func TestWireDeadlineExpiresMidFit(t *testing.T) {
	srv, client := startServer(t, 38, 2, 0, 50)
	logged := rpcErrors(srv)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Train(ctx, longFit)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("long fit: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("long fit returned after %v", elapsed)
	}
	awaitRPCError(t, logged, "context deadline exceeded", 2*time.Second)
	if n := srv.TrainInflight(); n != 0 {
		t.Fatalf("%d jobs still in the engine after the deadline", n)
	}
}
