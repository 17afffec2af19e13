package transport

import (
	"context"
	"errors"
	"strings"
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
