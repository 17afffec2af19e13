package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/ml"
)

// fakePeer listens on loopback and hands every accepted connection,
// with its 0-based accept index, to serve on its own goroutine. The
// listener and every connection are closed at test cleanup.
func fakePeer(t *testing.T, serve func(i int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-done; conn.Close() }()
			go serve(i, conn)
		}
	}()
	return ln.Addr().String()
}

// rawFirstFrame opens a raw connection to addr, sends first as its
// first frame and fails unless the server closes the connection without
// answering.
func rawFirstFrame(t *testing.T, addr, name string, first []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	// EOF, or a reset when the server closed on bytes it never read.
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if n > 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("%s: connection answered or left open (read %d bytes, err %v)", name, n, err)
	}
}

// TestHandshakeRejectsOldPeer pins the v2-only connection in both
// directions: two current peers connect, the first ping names the peer
// and the whole RPC surface works; a peer speaking anything else — the
// retired JSON codec, garbage — fails fast and is never served.
func TestHandshakeRejectsOldPeer(t *testing.T) {
	t.Run("v2-client_v2-server", func(t *testing.T) {
		srv, client := startServer(t, 7, 2, 0, 50)
		if got := srv.Conns(); got != 1 {
			t.Fatalf("server sees %d connections, want 1", got)
		}

		sum, err := client.Summary(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Validate(); err != nil {
			t.Fatal(err)
		}
		if sum.NodeID != "node-A" || sum.K() != 5 || sum.TotalSamples != 300 || sum.Epoch != 1 {
			t.Fatalf("summary %+v", sum)
		}

		// A traced request must come back with the node's phase spans
		// piggybacked (secSpans), with zero decode errors.
		tr, err := client.Train(context.Background(), federation.TrainRequest{
			Spec: ml.PaperLR(1), LocalEpochs: 10, TraceID: 0x5ce3,
		})
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, s := range tr.Spans {
			if s.DurationNS < 0 || s.StartUnixNS <= 0 {
				t.Fatalf("span %+v has impossible timing", s)
			}
			names[s.Name] = true
		}
		if !names["node.fit"] {
			t.Fatalf("traced train response lost node spans: %+v", tr.Spans)
		}

		// An untraced request must stay span-free: the node only
		// measures phases when asked to.
		quiet, err := client.Train(context.Background(), federation.TrainRequest{
			Spec: ml.PaperLR(1), LocalEpochs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(quiet.Spans) != 0 {
			t.Fatalf("untraced response carries %d spans", len(quiet.Spans))
		}

		// Structured errors survive the codec. "evaluate" is the
		// retired Eval RPC: a daemon answers it like any unknown type.
		for _, typ := range []string{"compress", "evaluate"} {
			if _, err := client.roundTrip(context.Background(), request{Type: typ}); !errors.Is(err, ErrUnknownType) {
				t.Fatalf("%s: unknown type error = %v", typ, err)
			}
		}
	})

	// A daemon that answers in JSON — the retired v1 codec — and then
	// waits for more. Dial and DialRegion must fail with the malformed
	// frame well inside their timeout, not hang or degrade.
	t.Run("v2-client_v1-server", func(t *testing.T) {
		addr := fakePeer(t, func(_ int, conn net.Conn) {
			buf, err := readFrameBody(conn)
			if err != nil {
				return
			}
			putFrameBuf(buf)
			_ = writeFrame(conn, map[string]string{"node_id": "old-node"})
			_, _ = readFrameBody(conn) // parked, as an old server would be
		})
		opts := DialOptions{Timeout: 30 * time.Second}
		start := time.Now()
		if c, err := Dial(addr, opts); !errors.Is(err, ErrMalformedFrame) {
			if c != nil {
				c.Close()
			}
			t.Fatalf("Dial against a JSON daemon: err %v, want ErrMalformedFrame", err)
		}
		if rc, err := DialRegion(context.Background(), addr, opts); !errors.Is(err, ErrMalformedFrame) {
			if rc != nil {
				rc.Close()
			}
			t.Fatalf("DialRegion against a JSON daemon: err %v, want ErrMalformedFrame", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("refusing a JSON peer took %v of a 30s dial timeout", took)
		}
	})

	// The other direction, on a participant and a region server alike: a
	// first frame that is not v2 closes the connection unanswered, nothing
	// is dispatched, and the server keeps serving v2 clients.
	t.Run("v1-client_v2-server", func(t *testing.T) {
		node, err := newFuzzNode()
		if err != nil {
			t.Fatal(err)
		}
		nodeSrv, err := Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		regionSrv, err := ServeRegion(regionFleet(t)[0], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		jsonFrame := func(v any) []byte {
			var b bytes.Buffer
			if err := writeFrame(&b, v); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		pong, err := appendWireResponse(nil, 1, &response{NodeID: "node-A"})
		if err != nil {
			t.Fatal(err)
		}
		// Each refused first frame logs one decode_error: the framed ones
		// fail to decode, and the unframed HTTP request's first four
		// bytes ("GET ") read as a length over MaxFrameSize.
		firsts := []struct {
			name  string
			frame []byte
		}{
			{"v1 ping", jsonFrame(map[string]any{"type": typePing, "wire_proto": 2})},
			{"v1 summary", jsonFrame(map[string]any{"type": typeSummary})},
			{"not a request", jsonFrame([]int{1, 2, 3})},
			{"v2 response", pong},
			{"garbage body", []byte{0, 0, 0, 3, 1, 2, 3}},
			{"unframed garbage", []byte("GET / HTTP/1.1\r\n\r\n")},
		}
		for _, srv := range []*Server{nodeSrv, regionSrv} {
			t.Cleanup(func() { srv.Close() })
			var lc logCapture
			srv.SetLogger(lc.logf)
			for _, first := range firsts {
				rawFirstFrame(t, srv.Addr(), first.name+" on "+srv.id, first.frame)
			}
			// The server goes on serving a v2 client after the refusals.
			c, err := Dial(srv.Addr(), DialOptions{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatalf("%s after the refusals: %v", srv.id, err)
			}
			if c.ID() != srv.id {
				t.Fatalf("%s answered the first ping as %q", srv.id, c.ID())
			}
			c.Close()
			logs := lc.joined()
			if got := strings.Count(logs, "event=decode_error"); got != len(firsts) {
				t.Fatalf("%s logged %d decode_error events, want %d:\n%s", srv.id, got, len(firsts), logs)
			}
			if got := strings.Count(logs, "event=rpc"); got != 1 || !strings.Contains(logs, "type=ping") {
				t.Fatalf("%s dispatched %d RPCs, want only the v2 client's ping:\n%s", srv.id, got, logs)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err = srv.Shutdown(ctx)
			cancel()
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		}
		// Shutdown awaited every connection handler: no server goroutine
		// may outlive it.
		waitNoGoroutine(t, "transport.(*Server)")
	})
}

// TestResubscribeFailureRedials: a re-subscribe that gets no answer on
// a fresh connection must drop that connection, so the next RPC redials
// and re-arms — it used to be swallowed, leaving the node pull-only
// for the life of the process. The fake peer speaks v2: it answers
// every ping, answers the explicit subscribe on connection 0, swallows
// the re-subscribe on connection 1, and must then see connection 2
// arrive carrying a fresh subscribe.
func TestResubscribeFailureRedials(t *testing.T) {
	// Accept index of each subscribe seen; room for more than the three
	// expected so the fake never blocks on the test.
	subscribes := make(chan int, 8)
	addr := fakePeer(t, func(i int, conn net.Conn) {
		for {
			buf, err := readFrameBody(conn)
			if err != nil {
				return
			}
			var req request
			id, err := decodeWireRequest(*buf, &req, nil)
			putFrameBuf(buf)
			if err != nil {
				return
			}
			var resp response
			switch req.Type {
			case typePing:
				resp.NodeID = "fake"
			case typeSubscribe:
				subscribes <- i
				if i == 1 {
					continue // swallowed: the client's re-subscribe times out
				}
			}
			if _, err := writeWireFrame(conn, func(b []byte) ([]byte, error) { return appendWireResponse(b, id, &resp) }); err != nil {
				return
			}
		}
	})

	client, err := Dial(addr, DialOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if ok, err := client.SubscribeSummaries(context.Background(), func(cluster.NodeSummary) {}); err != nil || !ok {
		t.Fatalf("subscribe: ok=%v err=%v", ok, err)
	}
	client.mu.Lock()
	client.conn.Close() // the next RPC redials and re-subscribes on its own
	client.mu.Unlock()

	want := []int{0, 1, 2}
	var got []int
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for len(got) < len(want) {
		select {
		case i := <-subscribes:
			got = append(got, i)
		case <-tick.C:
			_, _ = client.Ping() // pulls keep working throughout; each may redial
		case <-deadline:
			t.Fatalf("subscribes seen on connections %v, want %v: the swallowed re-subscribe was never retried", got, want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscribes seen on connections %v, want %v", got, want)
	}
}
