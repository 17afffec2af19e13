package transport

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/rng"
)

// startPushServer boots a daemon with its node handle exposed so tests
// can force advertisement-epoch bumps.
func startPushServer(t *testing.T) (*federation.Node, *Server, *Client) {
	t.Helper()
	node, err := federation.NewNode("node-A", lineDataset(300, 2, 1, 0, 50, 3), 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return node, srv, client
}

func TestPushEndToEnd(t *testing.T) {
	node, srv, client := startPushServer(t)

	got := make(chan cluster.NodeSummary, 8)
	ok, err := client.SubscribeSummaries(context.Background(), func(s cluster.NodeSummary) { got <- s })
	if err != nil || !ok {
		t.Fatalf("subscribe: ok=%v err=%v", ok, err)
	}
	// The subscription primes with the current advertisement so the
	// subscriber converges immediately.
	first := waitPush(t, got)
	if first.NodeID != "node-A" || first.Epoch != 1 {
		t.Fatalf("primed push %+v", first)
	}
	if srv.PushSubscribers() != 1 {
		t.Fatalf("subscribers = %d", srv.PushSubscribers())
	}

	// An epoch bump on the node flows to the subscriber unsolicited.
	if err := node.Requantize(); err != nil {
		t.Fatal(err)
	}
	next := waitPush(t, got)
	if next.Epoch != 2 {
		t.Fatalf("pushed epoch %d, want 2", next.Epoch)
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("pushed summary invalid: %v", err)
	}
	// The server counts a frame after its write returns, which can be
	// after the subscriber already handled it.
	for deadline := time.Now().Add(10 * time.Second); srv.PushesSent() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if srv.PushesSent() < 2 || client.pushesReceived.Load() < 2 {
		t.Fatalf("push counters: sent=%d received=%d", srv.PushesSent(), client.pushesReceived.Load())
	}

	// Push frames must not disturb the request/response path sharing
	// the connection.
	sum, err := client.Summary(context.Background())
	if err != nil || sum.Epoch != 2 {
		t.Fatalf("pull alongside push: %v epoch=%d", err, sum.Epoch)
	}
}

// TestPushPairings pins who pushes: a participant daemon pushes to a
// client that subscribed and keeps answering pulls beside it; a region
// server declines the subscription — ok=false, no error — and moves no
// push frame.
func TestPushPairings(t *testing.T) {
	t.Run("v2-server_v2-client", func(t *testing.T) {
		node, srv, client := startPushServer(t)
		got := make(chan cluster.NodeSummary, 8)
		ok, err := client.SubscribeSummaries(context.Background(), func(s cluster.NodeSummary) { got <- s })
		if err != nil || !ok {
			t.Fatalf("subscribe: ok=%v err=%v", ok, err)
		}
		// Pull must work beside push, before and after a bump.
		if sum, err := client.Summary(context.Background()); err != nil || sum.Epoch != 1 {
			t.Fatalf("pull: %v", err)
		}
		if err := node.Requantize(); err != nil {
			t.Fatal(err)
		}
		if sum, err := client.Summary(context.Background()); err != nil || sum.Epoch != 2 {
			t.Fatalf("pull after bump: %v", err)
		}
		// The bump must arrive by push too. The prime may be coalesced into
		// it when the pusher first runs after the bump, so wait for the
		// epoch, not for a frame count.
		for waitPush(t, got).Epoch != 2 {
		}
		if srv.PushSubscribers() != 1 {
			t.Fatalf("subscribers = %d", srv.PushSubscribers())
		}
	})
	t.Run("region-server", func(t *testing.T) {
		srv, err := ServeRegion(regionFleet(t)[0], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(silent)
		t.Cleanup(func() { srv.Close() })
		client, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		ok, err := client.SubscribeSummaries(context.Background(), func(cluster.NodeSummary) {
			t.Error("region server pushed a summary")
		})
		if err != nil || ok {
			t.Fatalf("subscribe must be declined, not error: ok=%v err=%v", ok, err)
		}
		// The subscribe RPC got unknown_type, and no pusher started.
		if srv.PushSubscribers() != 0 || srv.PushesSent() != 0 || client.pushesReceived.Load() != 0 {
			t.Fatalf("declined subscription moved push frames: subs=%d sent=%d recv=%d",
				srv.PushSubscribers(), srv.PushesSent(), client.pushesReceived.Load())
		}
	})
}

// TestPushSurvivesReconnect: the client re-arms its subscription on a
// fresh connection, so a server-side connection drop only pauses the
// stream.
func TestPushSurvivesReconnect(t *testing.T) {
	node, _, client := startPushServer(t)
	got := make(chan cluster.NodeSummary, 8)
	if ok, err := client.SubscribeSummaries(context.Background(), func(s cluster.NodeSummary) { got <- s }); err != nil || !ok {
		t.Fatalf("subscribe: ok=%v err=%v", ok, err)
	}
	waitPush(t, got) // primed

	// Force-close the client's connection (same as a server-side drop:
	// the reader goroutine dies and the next RPC redials).
	client.mu.Lock()
	client.conn.Close()
	client.mu.Unlock()

	// The next RPC redials; ensureConn re-arms the subscription, which
	// primes again with the current summary.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := client.Summary(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitPush(t, got)
	if err := node.Requantize(); err != nil {
		t.Fatal(err)
	}
	if next := waitPush(t, got); next.Epoch != 2 {
		t.Fatalf("post-reconnect push epoch %d, want 2", next.Epoch)
	}
}

// TestServerShutdownDrainsPushers is the satellite leak check: a
// graceful Shutdown with live push subscriptions must terminate every
// pusher goroutine before returning.
func TestServerShutdownDrainsPushers(t *testing.T) {
	node, srv, _ := startPushServer(t)
	// Several subscribed clients, each with in-flight push traffic.
	for i := 0; i < 3; i++ {
		c, err := Dial(srv.Addr(), DialOptions{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if ok, err := c.SubscribeSummaries(context.Background(), func(cluster.NodeSummary) {}); err != nil || !ok {
			t.Fatalf("subscribe: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := node.Requantize(); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Shutdown awaits the serve WaitGroup, which owns every pusher; no
	// runPusher frame may survive it.
	waitNoGoroutine(t, "runPusher")
	if n := srv.PushSubscribers(); n != 0 {
		t.Fatalf("%d subscriptions survive Shutdown", n)
	}
}

func waitPush(t *testing.T, ch <-chan cluster.NodeSummary) cluster.NodeSummary {
	t.Helper()
	select {
	case s := <-ch:
		return s
	case <-time.After(10 * time.Second):
		t.Fatal("no push frame within 10s")
		panic("unreachable")
	}
}

// waitNoGoroutine fails the test unless, within 5s, no goroutine has
// frame in its stack.
func waitNoGoroutine(t *testing.T, frame string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, frame) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines with %s on their stack leaked:\n%s", frame, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
