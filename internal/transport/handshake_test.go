package transport

import (
	"context"
	"errors"
	"io"
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

// rawHello opens a raw connection to addr, sends first as its first
// frame and returns the server's one JSON answer plus the connection
// (so the caller can check it was closed).
func rawHello(t *testing.T, addr string, first func(io.Writer) error) (response, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := first(conn); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := readFrame(conn, &resp); err != nil {
		t.Fatalf("no JSON answer to the first frame: %v", err)
	}
	return resp, conn
}

// TestHandshakeRejectsOldPeer pins the hello in both directions: two
// current peers connect and the whole RPC surface works; a peer that
// only speaks the retired JSON codec is refused loudly — never served
// over JSON, never silently degraded.
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

	// A v1-only daemon answers the hello like any ping — node id, no
	// wire_proto — and waits for the next JSON request. Dial must fail
	// with the sentinel well inside its timeout, not hang or degrade.
	t.Run("v2-client_v1-server", func(t *testing.T) {
		addr := fakePeer(t, func(_ int, conn net.Conn) {
			var hello request
			if readFrame(conn, &hello) != nil {
				return
			}
			_ = writeFrame(conn, response{NodeID: "old-node"})
			_ = readFrame(conn, &hello) // parked, as an old server would be
		})
		opts := DialOptions{Timeout: 30 * time.Second}
		start := time.Now()
		if c, err := Dial(addr, opts); !errors.Is(err, ErrPeerTooOld) {
			if c != nil {
				c.Close()
			}
			t.Fatalf("Dial against a v1-only daemon: err %v, want ErrPeerTooOld", err)
		} else if !strings.Contains(err.Error(), "old-node") {
			t.Fatalf("error does not name the old peer: %v", err)
		}
		if rc, err := DialRegion(context.Background(), addr, opts); !errors.Is(err, ErrPeerTooOld) {
			if rc != nil {
				rc.Close()
			}
			t.Fatalf("DialRegion against a v1-only daemon: err %v, want ErrPeerTooOld", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("refusing an old peer took %v of a 30s dial timeout", took)
		}
	})

	// The other direction, on a participant and a region server alike: a
	// first frame that is not a ping advertising wire_proto >= 2 gets one
	// JSON error and a closed connection, and nothing is dispatched.
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
		v2Frame, err := appendWireRequest(nil, 1, &request{Type: typePing})
		if err != nil {
			t.Fatal(err)
		}
		firsts := map[string]func(io.Writer) error{
			"v1 ping":        func(w io.Writer) error { return writeFrame(w, request{Type: typePing}) },
			"v1 summary":     func(w io.Writer) error { return writeFrame(w, request{Type: typeSummary}) },
			"non-ping hello": func(w io.Writer) error { return writeFrame(w, request{Type: typeTrain, WireProto: WireProtoV2}) },
			"binary frame":   func(w io.Writer) error { _, err := w.Write(v2Frame); return err },
			"not a request":  func(w io.Writer) error { return writeFrame(w, []int{1, 2, 3}) },
		}
		for _, srv := range []*Server{nodeSrv, regionSrv} {
			t.Cleanup(func() { srv.Close() })
			var lc logCapture
			srv.SetLogger(lc.logf)
			for name, first := range firsts {
				resp, conn := rawHello(t, srv.Addr(), first)
				if resp.Code != CodeUnsupportedProto || !strings.Contains(resp.Error, "upgrade") || resp.NodeID != "" {
					t.Fatalf("%s on %s: answer %+v, want an unsupported_proto error naming the upgrade", name, srv.id, resp)
				}
				if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
					t.Fatalf("%s on %s: connection left open after the refusal (read err %v)", name, srv.id, err)
				}
			}
			logs := lc.joined()
			if got := strings.Count(logs, "event=handshake_rejected"); got != len(firsts) {
				t.Fatalf("%s logged %d handshake_rejected events, want %d:\n%s", srv.id, got, len(firsts), logs)
			}
			if strings.Contains(logs, "event=rpc") {
				t.Fatalf("%s dispatched a refused first frame:\n%s", srv.id, logs)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := srv.Shutdown(ctx)
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
// for the life of the process. The fake peer answers every hello and
// every ping, answers the explicit subscribe on connection 0, swallows
// the re-subscribe on connection 1, and must then see connection 2
// arrive carrying a fresh subscribe.
func TestResubscribeFailureRedials(t *testing.T) {
	// Accept index of each subscribe seen; room for more than the three
	// expected so the fake never blocks on the test.
	subscribes := make(chan int, 8)
	addr := fakePeer(t, func(i int, conn net.Conn) {
		var hello request
		if readFrame(conn, &hello) != nil {
			return
		}
		if writeFrame(conn, response{NodeID: "fake", WireProto: WireProtoV2, SummaryPush: true}) != nil {
			return
		}
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
			resp := response{NodeID: "fake"}
			if req.Type == typeSubscribe {
				subscribes <- i
				if i == 1 {
					continue // swallowed: the client's re-subscribe times out
				}
				resp.SummaryPush = true
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
