package transport

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/rng"
)

// startPushServer boots a daemon with its node handle exposed so tests
// can force advertisement-epoch bumps.
func startPushServer(t *testing.T, serverMax, clientMax int) (*federation.Node, *Server, *Client) {
	t.Helper()
	node, err := federation.NewNode("node-A", lineDataset(300, 2, 1, 0, 50, 3), 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0", WithMaxWireProto(serverMax))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second, MaxProto: clientMax})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return node, srv, client
}

func TestPushEndToEnd(t *testing.T) {
	node, srv, client := startPushServer(t, WireProtoV2, WireProtoV2)

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
	if srv.PushesSent() < 2 || client.PushesReceived() < 2 {
		t.Fatalf("push counters: sent=%d received=%d", srv.PushesSent(), client.PushesReceived())
	}

	// Push frames must not disturb the request/response path sharing
	// the connection.
	sum, err := client.Summary(context.Background())
	if err != nil || sum.Epoch != 2 {
		t.Fatalf("pull alongside push: %v epoch=%d", err, sum.Epoch)
	}
}

// TestPushPairings pins the four wire pairings: push works only when
// both ends speak v2 AND the client subscribed; every other pairing
// transparently stays on pull with zero push frames on the wire.
func TestPushPairings(t *testing.T) {
	cases := []struct {
		name                 string
		serverMax, clientMax int
		wantPush             bool
	}{
		{"v2-server_v2-client", WireProtoV2, WireProtoV2, true},
		{"v2-server_v1-client", WireProtoV2, WireProtoV1, false},
		{"v1-server_v2-client", WireProtoV1, WireProtoV2, false},
		{"v1-server_v1-client", WireProtoV1, WireProtoV1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node, srv, client := startPushServer(t, tc.serverMax, tc.clientMax)
			var pushes sync.WaitGroup
			if tc.wantPush {
				pushes.Add(2) // prime + bump
			}
			ok, err := client.SubscribeSummaries(context.Background(), func(cluster.NodeSummary) { pushes.Done() })
			if err != nil {
				t.Fatalf("subscribe must degrade, not error: %v", err)
			}
			if ok != tc.wantPush {
				t.Fatalf("subscribe ok=%v, want %v", ok, tc.wantPush)
			}

			// Pull must work on every pairing, before and after a bump.
			if sum, err := client.Summary(context.Background()); err != nil || sum.Epoch != 1 {
				t.Fatalf("pull: %v", err)
			}
			if err := node.Requantize(); err != nil {
				t.Fatal(err)
			}
			if sum, err := client.Summary(context.Background()); err != nil || sum.Epoch != 2 {
				t.Fatalf("pull after bump: %v", err)
			}

			pushes.Wait()
			if !tc.wantPush {
				if srv.PushSubscribers() != 0 || srv.PushesSent() != 0 || client.PushesReceived() != 0 {
					t.Fatalf("pull-only pairing moved push frames: subs=%d sent=%d recv=%d",
						srv.PushSubscribers(), srv.PushesSent(), client.PushesReceived())
				}
			}
		})
	}
}

// TestPushSurvivesReconnect: the client re-arms its subscription on a
// fresh connection, so a server-side connection drop only pauses the
// stream.
func TestPushSurvivesReconnect(t *testing.T) {
	node, _, client := startPushServer(t, WireProtoV2, WireProtoV2)
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
	node, srv, _ := startPushServer(t, WireProtoV2, WireProtoV2)
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "runPusher") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pusher goroutines leaked past Shutdown:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
