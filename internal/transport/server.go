package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/region"
	"qens/internal/telemetry"
)

// request is the wire envelope sent by the leader. TraceID and SpanID
// are optional (backward-compatible) observability fields: when the
// leader runs a traced query, they attribute the daemon-side work to
// the originating query's trace. DeadlineUnixMS (optional, epoch
// milliseconds) carries the caller's context deadline across the
// wire, so the daemon can stop training — not just stop
// responding — once the query has expired.
type request struct {
	Type           string       `json:"type"`
	TraceID        telemetry.ID `json:"trace_id,omitempty"`
	SpanID         telemetry.ID `json:"span_id,omitempty"`
	DeadlineUnixMS int64        `json:"deadline_unix_ms,omitempty"`
	// KnownSummaryEpoch (summary requests only) advertises the summary
	// epoch the caller already holds; a node whose advertisement still
	// carries that epoch answers summary_unchanged instead of the full
	// body. Zero means "send everything" (the pre-delta behavior).
	KnownSummaryEpoch uint64                   `json:"known_summary_epoch,omitempty"`
	Train             *federation.TrainRequest `json:"train,omitempty"`
	RegionPlan        *region.PlanRequest      `json:"region_plan,omitempty"`
	RegionTrain       *region.TrainRequest     `json:"region_train,omitempty"`
}

// response is the wire envelope returned by a daemon. Code carries a
// structured error class (see Code* constants). NodeID is set only on a
// ping's answer: it names the peer to a dialing client.
type response struct {
	Error   string               `json:"error,omitempty"`
	Code    string               `json:"code,omitempty"`
	NodeID  string               `json:"node_id,omitempty"`
	Summary *cluster.NodeSummary `json:"summary,omitempty"`
	// SummaryUnchanged confirms the requester's known_summary_epoch is
	// still current; the summary body is omitted.
	SummaryUnchanged bool                      `json:"summary_unchanged,omitempty"`
	Train            *federation.TrainResponse `json:"train,omitempty"`
	RegionInfo       *region.Info              `json:"region_info,omitempty"`
	RegionPlan       *region.PlanResponse      `json:"region_plan,omitempty"`
	RegionTrain      *region.TrainResponse     `json:"region_train,omitempty"`
	RegionStats      *region.Stats             `json:"region_stats,omitempty"`
}

// serverMetrics holds the daemon-side metric handles, resolved once at
// Serve time so the per-RPC hot path is pure atomics.
type serverMetrics struct {
	trainRoundMS *telemetry.Histogram
	rpcMS        *telemetry.Histogram
	rpcTotal     map[string]*telemetry.Counter
	errorsTotal  *telemetry.Counter
	bytesIn      *telemetry.Counter
	bytesOut     *telemetry.Counter
	encodeUS     *telemetry.Histogram // v2 response encode latency
}

func newServerMetrics(reg *telemetry.Registry, nodeID string) *serverMetrics {
	node := telemetry.L("node", nodeID)
	reg.SetHelp("qens_train_round_ms", "Wall-clock latency of one local training round (ms).")
	reg.SetHelp("qens_wire_encode_us", "Response encode latency (µs).")
	m := &serverMetrics{
		trainRoundMS: reg.Histogram("qens_train_round_ms", node...),
		rpcMS:        reg.Histogram("qens_rpc_ms", node...),
		rpcTotal:     map[string]*telemetry.Counter{},
		errorsTotal:  reg.Counter("qens_errors_total", node...),
		bytesIn:      reg.Counter("qens_bytes_received_total", node...),
		bytesOut:     reg.Counter("qens_bytes_sent_total", node...),
		encodeUS:     reg.Histogram("qens_wire_encode_us", node...),
	}
	for _, t := range []string{typePing, typeSummary, typeTrain, typeSubscribe,
		typeRegionInfo, typeRegionPlan, typeRegionTrain, typeRegionStats, "unknown"} {
		m.rpcTotal[t] = reg.Counter("qens_rpc_total",
			telemetry.Label{Key: "node", Value: nodeID}, telemetry.Label{Key: "type", Value: t})
	}
	return m
}

// observeRPC records one dispatched request (nil-safe so bare test
// servers work); it reports whether a training round completed.
func (m *serverMetrics) observeRPC(reqType string, elapsed time.Duration, errored bool) (trained bool) {
	if m == nil {
		return false
	}
	m.rpcMS.ObserveDuration(elapsed)
	if c, ok := m.rpcTotal[reqType]; ok {
		c.Inc()
	} else {
		m.rpcTotal["unknown"].Inc()
	}
	if errored {
		m.errorsTotal.Inc()
	}
	if reqType == typeTrain && !errored {
		m.trainRoundMS.ObserveDuration(elapsed)
		return true
	}
	return false
}

// observeEncode records one response-encode duration (nil-safe).
func (m *serverMetrics) observeEncode(elapsed time.Duration) {
	if m != nil {
		m.encodeUS.Observe(float64(elapsed) / float64(time.Microsecond))
	}
}

// Server exposes one federation.Node — or one regional leader (see
// ServeRegion) — over TCP. Each connection may issue any number of
// requests, and requests execute concurrently — across connections and
// within one (tagged frames, per-request dispatch goroutines, responses
// written as they finish in any order). The node's training engine bounds
// actual parallelism (see federation.WithTrainConcurrency), so the
// transport never serializes dispatch.
type Server struct {
	node    *federation.Node // nil on a region server
	region  region.Service   // nil on a participant server
	id      string           // node id or region id
	ln      net.Listener
	metrics *serverMetrics

	// baseCtx parents every per-request context; cancel fires when
	// the server force-closes so in-flight training aborts at the
	// next mini-batch boundary.
	baseCtx context.Context
	cancel  context.CancelFunc

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
	logf      atomic.Pointer[func(format string, args ...any)]

	active    atomic.Int64 // RPCs currently executing (for graceful drain)
	lastTrain atomic.Int64 // unix nanos of the last completed train round

	// gate, when set (tests only), is invoked by every dispatch before
	// it executes — the shutdown tests use it to pin an RPC in flight
	// now that dispatch no longer serializes on a lock.
	gate atomic.Pointer[func()]

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // live connections

	// Push subscriptions: one pusher per subscribed connection.
	// Node epoch bumps mark every pusher dirty; each pusher goroutine
	// coalesces marks and writes the freshest summary under its
	// connection's write lock. Pushers stop at the first drain signal
	// (s.closed) and are awaited by s.wg, so Shutdown/Close leave no
	// goroutine behind.
	pushMu   sync.Mutex
	pushers  map[*pusher]struct{}
	pushID   atomic.Uint64 // server-minted push-frame id space
	pushSent atomic.Int64

	// unwatch removes the engine epoch-bump watcher registered at Serve
	// time; called on stop so a Serve/Shutdown cycle on a long-lived
	// node does not leave a dead server's notifier firing forever.
	unwatch func()
}

// pushWriteTimeout bounds one push-frame write. The frame is small, so
// hitting the deadline means the subscriber stopped reading; erroring
// the pusher out releases the connection's write lock instead of
// wedging every RPC response multiplexed on it.
const pushWriteTimeout = 10 * time.Second

// pusher is one connection's push subscription.
type pusher struct {
	cc       net.Conn
	writeMu  *sync.Mutex
	dirty    chan struct{} // cap 1: coalesced "summary may have moved"
	done     chan struct{}
	stopOnce sync.Once
}

func (p *pusher) notify() {
	select {
	case p.dirty <- struct{}{}:
	default:
	}
}

func (p *pusher) stop() { p.stopOnce.Do(func() { close(p.done) }) }

// Serve starts a participant daemon for node on addr (e.g.
// "127.0.0.1:0") and begins accepting connections in the background.
// RPC metrics are registered in the process-default telemetry
// registry under the node's id label.
func Serve(node *federation.Node, addr string) (*Server, error) {
	if node == nil {
		return nil, errors.New("transport: nil node")
	}
	return serve(node, nil, node.ID(), addr)
}

// ServeRegion starts a regional-leader daemon for svc on addr: the
// same listener, framing, metrics and drain semantics as a participant
// daemon, but serving the region.* RPC family instead of the node
// family. Ping answers with the region id, so DialContext's
// non-empty-id check holds unchanged.
func ServeRegion(svc region.Service, addr string) (*Server, error) {
	if svc == nil {
		return nil, errors.New("transport: nil region service")
	}
	if svc.ID() == "" {
		return nil, errors.New("transport: region service with empty id")
	}
	return serve(nil, svc, svc.ID(), addr)
}

func serve(node *federation.Node, svc region.Service, id, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		node:    node,
		region:  svc,
		id:      id,
		ln:      ln,
		metrics: newServerMetrics(telemetry.Default(), id),
		baseCtx: baseCtx,
		cancel:  cancel,
		closed:  make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		pushers: make(map[*pusher]struct{}),
	}
	s.SetLogger(log.Printf)
	if node != nil {
		// Ingest-driven freshness: every advertisement-epoch bump marks
		// all subscribed connections dirty; the pushers read the summary
		// themselves, so this callback stays cheap on the mutating path.
		// The registration is removed on stop (see stopAccepting).
		s.unwatch = node.Engine().OnEpochBump(func(uint64) { s.notifyPushers() })
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// notifyPushers marks every push subscription dirty.
func (s *Server) notifyPushers() {
	s.pushMu.Lock()
	for p := range s.pushers {
		p.notify()
	}
	s.pushMu.Unlock()
}

// addPusher registers a subscription and starts its goroutine, priming
// it so the subscriber converges on the current summary immediately.
func (s *Server) addPusher(cc net.Conn, writeMu *sync.Mutex) *pusher {
	p := &pusher{cc: cc, writeMu: writeMu, dirty: make(chan struct{}, 1), done: make(chan struct{})}
	s.pushMu.Lock()
	s.pushers[p] = struct{}{}
	s.pushMu.Unlock()
	s.wg.Add(1)
	go s.runPusher(p)
	p.notify()
	return p
}

// removePusher tears a subscription down (connection teardown).
func (s *Server) removePusher(p *pusher) {
	s.pushMu.Lock()
	delete(s.pushers, p)
	s.pushMu.Unlock()
	p.stop()
}

// runPusher drains one subscription's dirty marks, writing a push
// frame per observed epoch step. It exits on connection teardown, on
// the server's drain signal, or on the first write error (the serve
// loop notices the broken conn on its own).
func (s *Server) runPusher(p *pusher) {
	defer s.wg.Done()
	var lastEpoch uint64
	for {
		select {
		case <-p.done:
			return
		case <-s.closed:
			return
		case <-p.dirty:
		}
		sum := s.node.Summary()
		if sum.Epoch == lastEpoch {
			continue
		}
		lastEpoch = sum.Epoch
		id := s.pushID.Add(1)
		p.writeMu.Lock()
		// Deadline-bound write: a subscriber that stopped reading must
		// error this pusher out, not hold writeMu (and with it every RPC
		// response on the connection) until the conn is force-closed.
		_ = p.cc.SetWriteDeadline(time.Now().Add(pushWriteTimeout))
		_, err := writeWireFrame(p.cc, func(b []byte) ([]byte, error) { return appendWirePush(b, id, &sum) })
		_ = p.cc.SetWriteDeadline(time.Time{})
		p.writeMu.Unlock()
		if err != nil {
			s.logkv("event", "push_write_error", "err", err)
			return
		}
		s.pushSent.Add(1)
	}
}

// PushSubscribers reports how many connections hold live push
// subscriptions (surfaced by qensd /healthz).
func (s *Server) PushSubscribers() int {
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	return len(s.pushers)
}

// PushesSent reports how many summary push frames this server has
// written (surfaced by qensd /healthz).
func (s *Server) PushesSent() int64 { return s.pushSent.Load() }

// SetLogger replaces the server's log function (tests use a silent
// one). Safe to call while the server is accepting traffic. The logger
// must not keep args after it returns — log.Printf does not: the
// per-RPC line is a pooled buffer, reused by the next RPC.
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf != nil {
		s.logf.Store(&logf)
	}
}

// logkv emits one structured key=value log line through the server's
// log function.
func (s *Server) logkv(kvs ...any) {
	s.logger()("%s", telemetry.FormatKV(append([]any{"component", "transport", "node", s.id}, kvs...)...))
}

// logger returns the server's log function.
func (s *Server) logger() func(format string, args ...any) {
	if p := s.logf.Load(); p != nil {
		return *p
	}
	return log.Printf
}

// logBuf is a pooled per-RPC log line that hands itself to the logger
// as its own argument: args is boxed once, when the buffer is made, and
// Format writes the bytes through, so a line reaches the logger with no
// string, no boxing and no variadic slice built per RPC.
type logBuf struct {
	b    []byte
	args [1]any
}

// Format implements fmt.Formatter: every verb writes the line as is.
func (lb *logBuf) Format(f fmt.State, _ rune) { _, _ = f.Write(lb.b) }

var logBufPool = sync.Pool{New: func() any {
	lb := &logBuf{}
	lb.args[0] = lb
	return lb
}}

// logRPC logs the per-RPC line — the text logkv gives for event=rpc
// type=… dur_ms=… [trace=… span=…] [err=… [code=…]] — rendered into a
// pooled buffer: it is built for every RPC served, whatever the logger
// then does with it, so it must not cost logkv's boxing and formatting.
func (s *Server) logRPC(req *request, resp *response, elapsed time.Duration) {
	lb := logBufPool.Get().(*logBuf)
	b := telemetry.AppendKV(lb.b[:0], "component", "transport")
	b = telemetry.AppendKV(b, "node", s.id)
	b = telemetry.AppendKV(b, "event", "rpc")
	b = telemetry.AppendKV(b, "type", req.Type)
	b = append(b, " dur_ms="...)
	b = strconv.AppendFloat(b, float64(elapsed)/float64(time.Millisecond), 'f', 3, 64)
	if req.TraceID != 0 {
		b = telemetry.AppendIDKV(b, "trace", req.TraceID)
		b = telemetry.AppendIDKV(b, "span", req.SpanID)
	}
	if resp.Error != "" {
		b = telemetry.AppendKV(b, "err", resp.Error)
		if resp.Code != "" {
			b = telemetry.AppendKV(b, "code", resp.Code)
		}
	}
	lb.b = b
	s.logger()("%s", lb.args[:]...)
	logBufPool.Put(lb)
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Conns reports how many connections are live right now (surfaced by
// the qensd /healthz endpoint).
func (s *Server) Conns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// LastTrainAge reports how long ago the last training round completed
// (ok is false when the daemon has never trained) — surfaced by the
// qensd /healthz endpoint.
func (s *Server) LastTrainAge() (time.Duration, bool) {
	ns := s.lastTrain.Load()
	if ns == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, ns)), true
}

// Close force-stops the server: it stops accepting, closes every live
// connection (aborting any in-flight RPC mid-read/-write) and waits for
// the handlers to unwind. Use Shutdown for a graceful drain.
func (s *Server) Close() error {
	err := s.stopAccepting()
	s.closeConns()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, waits for every executing RPC to finish (idle
// connections parked between requests do not delay shutdown), then
// closes the remaining connections. If ctx expires first the drain is
// abandoned — connections are force-closed and ctx's error is returned
// without waiting for handlers to unwind (call Close to wait, as with
// net/http's Shutdown/Close pair). The drain is best-effort: a request
// that arrives on an already-accepted connection during the drain
// window still runs to completion.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.stopAccepting()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			s.closeConns()
			if err == nil {
				err = ctx.Err()
			}
			return err
		case <-tick.C:
		}
	}
	s.closeConns()
	s.wg.Wait()
	return err
}

// stopAccepting marks the server closed and shuts the listener so no
// new connections land; it also detaches the engine epoch-bump watcher
// so mutations on the node stop notifying this server. Safe to call
// more than once.
func (s *Server) stopAccepting() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.unwatch != nil {
			s.unwatch()
		}
		err = s.ln.Close()
	})
	return err
}

// closeConns force-closes every tracked connection, kicking handlers
// out of blocking reads, and cancels the base context so in-flight
// node jobs abandon work at the next cancellation point.
func (s *Server) closeConns() {
	s.cancel()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

// trackConn registers a live connection; it reports false when the
// server is already closing (the caller must drop the connection).
func (s *Server) trackConn(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrackConn removes a finished connection.
func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logkv("event", "accept_error", "err", err)
				return
			}
		}
		if !s.trackConn(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(conn)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

// handleConn serves a connection, which speaks v2 from its first
// frame; its bytes count straight into qens_bytes_*_total.
func (s *Server) handleConn(conn net.Conn) {
	s.serveV2(&countedConn{Conn: conn, out: s.metrics.bytesOut, in: s.metrics.bytesIn})
}

// serveV2 runs a connection: tagged binary request frames dispatch
// concurrently, each response is written (under a write lock) as soon
// as its handler finishes — in whatever order that happens. A malformed
// frame — JSON or garbage from a peer that does not speak v2 among
// them — drops the connection undispatched; every spawned handler is
// awaited before the connection handler returns, so server
// Close/Shutdown semantics are unchanged.
func (s *Server) serveV2(cc net.Conn) {
	var (
		writeMu sync.Mutex
		wg      sync.WaitGroup
		push    *pusher
	)
	defer wg.Wait()
	defer func() {
		if push != nil {
			s.removePusher(push)
		}
	}()
	ids := idTable{}
	for {
		buf, err := readFrameBody(cc)
		if err != nil {
			// A clean EOF or a network failure ends the connection
			// quietly; an oversized or truncated frame is a peer that
			// does not speak v2 (an HTTP request's first four bytes read
			// as a length over MaxFrameSize).
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, io.ErrUnexpectedEOF) {
				s.logkv("event", "decode_error", "err", err)
			}
			return
		}
		var req request
		id, err := decodeWireRequest(*buf, &req, ids)
		putFrameBuf(buf)
		if err != nil {
			s.logkv("event", "decode_error", "err", err)
			return
		}
		if req.Type == typeSubscribe {
			// Handled inline rather than in dispatch: the subscription is
			// per-connection state, so it needs this loop's write lock and
			// teardown scope. Region servers have no node summary to push.
			var resp response
			if s.node == nil {
				resp = response{Error: "push subscription on a region server", Code: CodeUnknownType}
			} else if push == nil {
				push = s.addPusher(cc, &writeMu)
			}
			s.metrics.observeRPC(req.Type, 0, resp.Error != "")
			writeMu.Lock()
			_, err := writeWireFrame(cc, func(b []byte) ([]byte, error) { return appendWireResponse(b, id, &resp) })
			writeMu.Unlock()
			if err != nil {
				s.logkv("event", "write_error", "type", req.Type, "err", err)
				return
			}
			continue
		}
		s.active.Add(1)
		wg.Add(1)
		go func(id uint64, req request) {
			defer wg.Done()
			resp := s.dispatch(req)
			start := time.Now()
			buf := getFrameBuf()
			frame, err := appendWireResponse((*buf)[:0], id, &resp)
			s.metrics.observeEncode(time.Since(start))
			if err == nil {
				*buf = frame
				writeMu.Lock()
				_, err = cc.Write(frame)
				writeMu.Unlock()
			}
			putFrameBuf(buf)
			s.active.Add(-1)
			if err != nil {
				s.logkv("event", "write_error", "type", req.Type, "trace", req.TraceID, "err", err)
			}
		}(id, req)
	}
}

// dispatch executes one request against the node, recording metrics
// and a structured per-RPC log line attributed to the request's
// trace. Dispatches run concurrently across and within connections;
// the node's engine bounds how many actually execute at once.
func (s *Server) dispatch(req request) response {
	if g := s.gate.Load(); g != nil {
		(*g)()
	}
	ctx := s.baseCtx
	if req.DeadlineUnixMS > 0 {
		at := time.UnixMilli(req.DeadlineUnixMS)
		if s.node != nil {
			wd := wireDeadlines.Get().(*wireDeadline)
			wd.Context, wd.at = ctx, at
			defer wd.release()
			ctx = wd
		} else {
			// A region fans out to its members and waits on their
			// replies, so its deadline must fire Done by itself.
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, at)
			defer cancel()
		}
	}
	start := time.Now()
	resp := s.handle(ctx, req)
	elapsed := time.Since(start)

	if s.metrics.observeRPC(req.Type, elapsed, resp.Error != "") {
		s.lastTrain.Store(time.Now().UnixNano())
	}

	s.logRPC(&req, &resp, elapsed)
	return resp
}

// wireDeadline carries a node RPC's wire deadline as a value, with no
// timer behind it: Deadline reports it and Err reports
// context.DeadlineExceeded once it has passed. A node job polls Err at
// admission and at every cluster and mini-batch boundary, so Err reads
// the clock on its first call and on every pollEvery-th after (a read
// per mini-batch would cost more than the timer it replaces, for a
// deadline the wire carries in whole milliseconds): an expired fit
// stops within pollEvery boundaries. Only a job that must queue for an
// engine slot blocks on Done, and the first Done call derives a real
// deadline context, arming the one timer; so does Err once it sees the
// deadline pass (with no timer, as the derived context is born done),
// and Err defers to the derived context from then on, so a non-nil Err
// always comes with a closed Done. Shutdown cancels the parent, which
// both see. Its methods are safe for concurrent use.
//
// It breaks one part of the context contract: dispatch takes it from
// wireDeadlines and releases it back when the RPC returns, so nothing
// may keep it, or derive a context from it that outlives the RPC (a
// context.WithCancel or AfterFunc would watch a recycled value). The
// node path derives nothing from it.
type wireDeadline struct {
	context.Context
	at      time.Time
	mu      sync.Mutex
	polls   int
	derived context.Context // set by the first Done call, or once Err sees at pass
	cancel  context.CancelFunc
}

// pollEvery is how many Err calls share one clock read.
const pollEvery = 16

func (c *wireDeadline) Deadline() (time.Time, bool) { return c.at, true }

func (c *wireDeadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.derived == nil {
		// The parent is the server's base context, shared by every RPC:
		// its Done channel is read without its lock.
		select {
		case <-c.Context.Done():
			return c.Context.Err()
		default:
		}
		read := c.polls%pollEvery == 0
		c.polls++
		if !read || time.Now().Before(c.at) {
			return nil
		}
		c.derived, c.cancel = context.WithDeadline(c.Context, c.at)
	}
	return c.derived.Err()
}

func (c *wireDeadline) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.derived == nil {
		c.derived, c.cancel = context.WithDeadline(c.Context, c.at)
	}
	return c.derived.Done()
}

// release stops the timer Done armed, if it did, and pools c.
func (c *wireDeadline) release() {
	if c.cancel != nil {
		c.cancel()
	}
	*c = wireDeadline{}
	wireDeadlines.Put(c)
}

var wireDeadlines = sync.Pool{New: func() any { return new(wireDeadline) }}

// SummaryEpoch reports the served node's current advertisement version
// (surfaced by the qensd /healthz endpoint; 0 on a region server).
func (s *Server) SummaryEpoch() uint64 {
	if s.node == nil {
		return 0
	}
	return s.node.SummaryEpoch()
}

// TrainSlots reports the node engine's concurrency bound (the
// -train-concurrency setting after defaulting; 0 on a region server).
func (s *Server) TrainSlots() int {
	if s.node == nil {
		return 0
	}
	return s.node.Engine().Parallelism()
}

// TrainInflight reports how many jobs are executing inside the node
// engine right now (always <= TrainSlots).
func (s *Server) TrainInflight() int64 {
	if s.node == nil {
		return 0
	}
	return s.node.Engine().Inflight()
}

// handle runs the per-type logic. ctx carries the server lifetime and
// any wire-propagated request deadline into the node's cancellation
// points (engine admission queue, cluster boundaries, mini-batches).
func (s *Server) handle(ctx context.Context, req request) response {
	if s.region != nil {
		return s.handleRegion(ctx, req)
	}
	switch req.Type {
	case typePing:
		return response{NodeID: s.node.ID()}
	case typeSummary:
		// Epoch-conditional fast path for delta refreshes: when the
		// caller already holds the current advertisement, confirm it in
		// a summary-free response. A requantize racing the answer bumps
		// the epoch, which the next push or refresh delivers.
		if req.KnownSummaryEpoch != 0 && req.KnownSummaryEpoch == s.node.SummaryEpoch() {
			return response{SummaryUnchanged: true}
		}
		sum := s.node.Summary()
		return response{Summary: &sum}
	case typeTrain:
		if req.Train == nil {
			return response{Error: "train request missing body", Code: CodeBadRequest}
		}
		out, err := s.node.TrainContext(ctx, *req.Train)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Train: &out}
	default:
		return response{
			Error: fmt.Sprintf("unknown request type %q", req.Type),
			Code:  CodeUnknownType,
		}
	}
}

// handleRegion runs the per-type logic of a regional-leader daemon.
// Ping identifies the daemon by its region id; the node RPC family
// (summary/train) is rejected as unknown, so a root that
// mistakes a region daemon for a participant fails loudly.
func (s *Server) handleRegion(ctx context.Context, req request) response {
	switch req.Type {
	case typePing:
		return response{NodeID: s.region.ID()}
	case typeRegionInfo:
		info, err := s.region.Info(ctx)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{RegionInfo: &info}
	case typeRegionPlan:
		if req.RegionPlan == nil {
			return response{Error: "region plan request missing body", Code: CodeBadRequest}
		}
		out, err := s.region.Plan(ctx, *req.RegionPlan)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{RegionPlan: &out}
	case typeRegionTrain:
		if req.RegionTrain == nil {
			return response{Error: "region train request missing body", Code: CodeBadRequest}
		}
		out, err := s.region.Train(ctx, *req.RegionTrain)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{RegionTrain: &out}
	case typeRegionStats:
		out, err := s.region.Stats(ctx)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{RegionStats: &out}
	default:
		return response{
			Error: fmt.Sprintf("unknown request type %q", req.Type),
			Code:  CodeUnknownType,
		}
	}
}
