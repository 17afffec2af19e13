package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

func silent(string, ...any) {}

func lineDataset(n int, slope, intercept, lo, hi float64, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		x := src.Uniform(lo, hi)
		d.MustAppend([]float64{x, slope*x + intercept + src.Normal(0, 0.3)})
	}
	return d
}

func startServer(t *testing.T, seed uint64, slope, lo, hi float64) (*Server, *Client) {
	t.Helper()
	node, err := federation.NewNode("node-A", lineDataset(300, slope, 1, lo, hi, seed), 5, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := map[string]any{"hello": "world", "n": 42.0}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out["hello"] != "world" || out["n"] != 42.0 {
		t.Fatalf("round trip = %v", out)
	}
}

func TestFrameEOF(t *testing.T) {
	var out map[string]any
	if err := readFrame(strings.NewReader(""), &out); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A forged header claiming a giant frame must be rejected.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var out map[string]any
	if err := readFrame(&buf, &out); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	var out map[string]int
	if err := readFrame(bytes.NewReader(trunc), &out); err == nil {
		t.Fatal("accepted truncated body")
	}
}

func TestDialPing(t *testing.T) {
	_, client := startServer(t, 1, 2, 0, 50)
	if client.ID() != "node-A" {
		t.Fatalf("client id %s", client.ID())
	}
}

func TestDialRefused(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", DialOptions{Timeout: time.Second}); err == nil {
		t.Fatal("dialed a closed port")
	}
}

func TestRemoteSummary(t *testing.T) {
	_, client := startServer(t, 2, 2, 0, 50)
	sum, err := client.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if sum.NodeID != "node-A" || sum.K() != 5 || sum.TotalSamples != 300 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestRemoteTrainAndEvaluate(t *testing.T) {
	_, client := startServer(t, 3, 3, 0, 20)
	spec := ml.PaperLR(1)
	resp, err := client.Train(context.Background(), federation.TrainRequest{Spec: spec, LocalEpochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SamplesUsed != 300 {
		t.Fatalf("trained on %d samples", resp.SamplesUsed)
	}
	m := spec.MustNew()
	if err := m.SetParams(resp.Params); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{10}); math.Abs(got-31) > 4 {
		t.Fatalf("remote-trained model predicts %v, want ~31", got)
	}
	ev, err := client.Evaluate(context.Background(), federation.EvalRequest{Spec: spec, Params: resp.Params})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Samples != 300 || ev.MSE > 2 {
		t.Fatalf("remote eval %+v", ev)
	}
}

func TestRemoteTrainError(t *testing.T) {
	_, client := startServer(t, 4, 1, 0, 10)
	_, err := client.Train(context.Background(), federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 0})
	if err == nil || !strings.Contains(err.Error(), "local epochs") {
		t.Fatalf("err = %v", err)
	}
	// The connection must remain usable after a server-side error.
	if _, err := client.Summary(context.Background()); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestClientReconnects(t *testing.T) {
	node, err := federation.NewNode("node-A", lineDataset(100, 1, 0, 0, 10, 5), 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Force-close the client's connection; the next call must
	// transparently reconnect.
	client.mu.Lock()
	client.conn.Close()
	client.mu.Unlock()
	if _, err := client.Summary(context.Background()); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
	srv.Close()
	// After server shutdown, calls must fail.
	if _, err := client.Summary(context.Background()); err == nil {
		t.Fatal("summary succeeded against a closed server")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, 6, 1, 0, 10)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// End-to-end: a leader driving three real TCP participants through a
// query-driven federated round.
func TestFederationOverTCP(t *testing.T) {
	datasets := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 30, 10),
		lineDataset(300, 2, 1, 20, 60, 11),
		lineDataset(300, -2, 400, 200, 300, 12),
	}
	var clients []federation.Client
	for i, d := range datasets {
		node, err := federation.NewNode(
			[]string{"alpha", "beta", "gamma"}[i], d, 5, rng.New(uint64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(silent)
		t.Cleanup(func() { srv.Close() })
		c, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
	}

	cfg := federation.Config{Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 15, Seed: 9}
	leader, err := federation.NewLeader(cfg, datasets[0], clients)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.New("q-net", geometry.MustRect([]float64{5, -50}, []float64{40, 150}))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := leader.Execute(context.Background(), federation.Request{Query: q, Selector: selection.QueryDriven{Epsilon: 0.6, TopL: 2}, Aggregation: federation.WeightedAveraging})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Participants {
		if p.NodeID == "gamma" {
			t.Fatal("selected the disjoint node over TCP")
		}
	}
	if got := res.Ensemble.Predict([]float64{20}); math.Abs(got-41) > 8 {
		t.Fatalf("TCP ensemble predicts %v at x=20, want ~41", got)
	}
	// GT selection must also work over TCP (it exercises Evaluate).
	gt, _, err := leader.Execute(context.Background(), federation.Request{Query: q, Selector: selection.GameTheory{L: 1}, Aggregation: federation.ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	if gt.Participants[0].NodeID != "gamma" {
		t.Fatalf("GT over TCP picked %s, want gamma", gt.Participants[0].NodeID)
	}
}

func TestClientPing(t *testing.T) {
	_, client := startServer(t, 7, 1, 0, 10)
	id, err := client.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if id != "node-A" {
		t.Fatalf("ping returned %q", id)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, 8, 2, 0, 30)
	const workers = 6
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			c, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 5; i++ {
				if _, err := c.Summary(context.Background()); err != nil {
					errs <- err
					return
				}
				if _, err := c.Train(context.Background(), federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 1}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// newFuzzNode builds a small node for the dispatch fuzz target.
func newFuzzNode() (*federation.Node, error) {
	return federation.NewNode("fuzz", lineDataset(60, 1, 0, 0, 10, 99), 3, rng.New(99))
}

func TestClientBytesMoved(t *testing.T) {
	_, client := startServer(t, 9, 1, 0, 20)
	out0, in0 := client.BytesMoved()
	if _, err := client.Summary(context.Background()); err != nil {
		t.Fatal(err)
	}
	out1, in1 := client.BytesMoved()
	if out1 <= out0 || in1 <= in0 {
		t.Fatalf("byte counters did not advance: out %d->%d in %d->%d", out0, out1, in0, in1)
	}
	// A summary response (5 clusters of rectangles) dwarfs the request.
	if in1-in0 < 100 {
		t.Fatalf("summary response only %d bytes", in1-in0)
	}
}

// ---- observability tests ----

// logCapture is a thread-safe log sink for asserting structured logs.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

// TestUnknownTypeStructuredError verifies the server rejects an
// unimplemented message type with a structured code, names the
// offending type, increments the error metric, and keeps the
// connection usable.
func TestUnknownTypeStructuredError(t *testing.T) {
	_, client := startServer(t, 30, 1, 0, 10)
	errsBefore := telemetry.Default().Counter("qens_errors_total", telemetry.L("node", "node-A")...).Value()

	_, err := client.roundTrip(context.Background(), request{Type: "compress"})
	if err == nil {
		t.Fatal("unknown type accepted")
	}
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
	if !strings.Contains(err.Error(), `"compress"`) {
		t.Fatalf("error does not name the offending type: %v", err)
	}
	errsAfter := telemetry.Default().Counter("qens_errors_total", telemetry.L("node", "node-A")...).Value()
	if errsAfter <= errsBefore {
		t.Fatalf("qens_errors_total did not advance: %d -> %d", errsBefore, errsAfter)
	}
	// The connection survives the protocol error.
	if _, err := client.Summary(context.Background()); err != nil {
		t.Fatalf("connection unusable after unknown type: %v", err)
	}
}

// TestTraceIDRoundTrip verifies trace/span IDs survive the wire in
// both directions: the daemon's structured log attributes the RPC to
// the trace and the response envelope echoes it.
func TestTraceIDRoundTrip(t *testing.T) {
	srv, client := startServer(t, 31, 2, 0, 40)
	var lc logCapture
	srv.SetLogger(lc.logf)

	resp, err := client.roundTrip(context.Background(), request{
		Type:    typeTrain,
		TraceID: 0xcafe01,
		SpanID:  0xbeef02,
		Train:   &federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != 0xcafe01 {
		t.Fatalf("response echoes trace %s, want 0000000000cafe01", resp.TraceID)
	}
	logs := lc.joined()
	if !strings.Contains(logs, "trace=0000000000cafe01") || !strings.Contains(logs, "span=0000000000beef02") {
		t.Fatalf("daemon log not attributed to the trace:\n%s", logs)
	}
	if !strings.Contains(logs, "event=rpc") || !strings.Contains(logs, "type=train") {
		t.Fatalf("log not structured key=value:\n%s", logs)
	}

	// The typed client path lifts TrainRequest trace fields into the
	// envelope (asserted via the daemon log).
	lc2 := logCapture{}
	srv.SetLogger(lc2.logf)
	if _, err := client.Train(context.Background(), federation.TrainRequest{
		Spec: ml.PaperLR(1), LocalEpochs: 1, TraceID: 0xfeed03, SpanID: 0xdead04,
	}); err != nil {
		t.Fatal(err)
	}
	if logs := lc2.joined(); !strings.Contains(logs, "trace=0000000000feed03") {
		t.Fatalf("Train() did not propagate trace id:\n%s", logs)
	}
}

// TestRPCLogLine pins the per-RPC log line: byte-equal to what
// FormatKV renders for every shape dispatch produces, and handed to the
// logger without allocating.
func TestRPCLogLine(t *testing.T) {
	s := &Server{id: "node 7"} // a space: the quoting rule applies to every value
	elapsed := 1234567 * time.Nanosecond
	var out bytes.Buffer
	s.SetLogger(func(format string, args ...any) {
		out.Reset()
		fmt.Fprintf(&out, format, args...)
	})
	const literal = `component=transport node="node 7" event=rpc type=train dur_ms=1.235 trace=0000000000000001 span=00000000000000a2 err="a=b"`
	if s.logRPC(&request{Type: typeTrain, TraceID: 1, SpanID: 0xa2}, &response{Error: "a=b"}, elapsed); out.String() != literal {
		t.Errorf("got  %s\nwant %s", out.String(), literal)
	}
	for _, tc := range []struct {
		name string
		req  request
		resp response
		tail []any
	}{
		{"untraced", request{Type: typeTrain}, response{}, nil},
		{"traced", request{Type: typeRegionPlan, TraceID: 0xfedcba9876543210, SpanID: 2}, response{},
			[]any{"trace", "fedcba9876543210", "span", "0000000000000002"}},
		{"traced without a span", request{Type: typeTrain, TraceID: 3}, response{},
			[]any{"trace", "0000000000000003", "span", ""}},
		{"error", request{Type: typeEvaluate}, response{Error: `no "data" here`},
			[]any{"err", `no "data" here`}},
		{"traced error with code", request{Type: "compress", TraceID: 0xff, SpanID: 2},
			response{Error: "unknown type", Code: CodeUnknownType},
			[]any{"trace", "00000000000000ff", "span", "0000000000000002", "err", "unknown type", "code", CodeUnknownType}},
	} {
		want := telemetry.FormatKV(append([]any{"component", "transport", "node", s.id,
			"event", "rpc", "type", tc.req.Type, "dur_ms", fmt.Sprintf("%.3f", 1.234567)}, tc.tail...)...)
		if s.logRPC(&tc.req, &tc.resp, elapsed); out.String() != want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, out.String(), want)
		}
		if raceEnabled {
			continue // sync.Pool drops Puts under -race
		}
		if n := testing.AllocsPerRun(100, func() { s.logRPC(&tc.req, &tc.resp, elapsed) }); n != 0 {
			t.Errorf("%s: %v allocations per logged line, want 0", tc.name, n)
		}
	}
}

// TestOversizedFrameWrite verifies a body above MaxFrameSize is
// refused on the write side before touching the socket.
func TestOversizedFrameWrite(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, map[string]any{"v": strings.Repeat("a", MaxFrameSize)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized frame leaked %d bytes onto the wire", buf.Len())
	}
}

// TestOversizedFrameServer verifies a peer announcing an oversized
// frame is dropped without killing the server.
func TestOversizedFrameServer(t *testing.T) {
	srv, _ := startServer(t, 32, 1, 0, 10)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header claiming a 4 GiB frame.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection: the read returns EOF.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	onebyte := make([]byte, 1)
	if _, err := conn.Read(onebyte); err == nil {
		t.Fatal("server kept an oversized-frame connection alive")
	}
	// And stays healthy for well-behaved clients.
	c, err := Dial(srv.Addr(), DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("server unhealthy after oversized frame: %v", err)
	}
	defer c.Close()
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetrics verifies the daemon-side Prometheus families
// advance: train rounds, round latency histogram and wire bytes.
func TestServerMetrics(t *testing.T) {
	reg := telemetry.Default()
	node := telemetry.L("node", "node-A")
	srv, client := startServer(t, 33, 2, 0, 30)

	rounds0 := reg.Counter("qens_train_rounds_total", node...).Value()
	in0 := reg.Counter("qens_bytes_received_total", node...).Value()
	out0 := reg.Counter("qens_bytes_sent_total", node...).Value()
	hist0 := reg.Histogram("qens_train_round_ms", node...).Count()

	if _, err := client.Train(context.Background(), federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 2}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("qens_train_rounds_total", node...).Value(); got != rounds0+1 {
		t.Fatalf("qens_train_rounds_total %d -> %d, want +1", rounds0, got)
	}
	if got := reg.Histogram("qens_train_round_ms", node...).Count(); got != hist0+1 {
		t.Fatalf("qens_train_round_ms count %d -> %d, want +1", hist0, got)
	}
	// The server tallies a connection's bytes after it has written the
	// response, so the client can hold the answer a moment before the
	// counters move: wait for them, bounded.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("qens_bytes_received_total", node...).Value() <= in0 ||
		reg.Counter("qens_bytes_sent_total", node...).Value() <= out0 {
		if time.Now().After(deadline) {
			t.Fatalf("wire byte counters did not advance: received %d -> %d, sent %d -> %d",
				in0, reg.Counter("qens_bytes_received_total", node...).Value(),
				out0, reg.Counter("qens_bytes_sent_total", node...).Value())
		}
		time.Sleep(time.Millisecond)
	}
	if age, ok := srv.LastTrainAge(); !ok || age < 0 || age > time.Minute {
		t.Fatalf("LastTrainAge = %v, %v", age, ok)
	}
}
