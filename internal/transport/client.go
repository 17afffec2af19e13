package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/telemetry"
)

// Client is a TCP-backed federation.Client: the leader's handle on a
// remote participant daemon. It keeps one persistent connection,
// reconnecting on failure. After the JSON hello (see handshake) the
// connection is multiplexed: every request frame carries a request id,
// one reader goroutine routes responses to waiting callers through a
// pending-call map, and writes interleave under a write lock — so N
// concurrent RPCs to the same node pipeline on one connection instead
// of queueing head-of-line. The server dispatches concurrently (see
// Server), so in-flight calls genuinely overlap.
//
// Every RPC takes a context.Context: the effective deadline is the
// earlier of the context deadline and the client's configured
// timeout. A canceled call simply abandons its pending slot — the
// tagged response is dropped on arrival and the connection stays
// healthy for the other in-flight calls; the deadline also crosses
// the wire (deadline_unix_ms) so the daemon abandons the work itself.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex // guards conn replacement and dialing
	conn *wireConn
	id   string

	bytesOut atomic.Int64
	bytesIn  atomic.Int64
	inflight atomic.Int64

	inflightGauge *telemetry.Gauge

	// Push subscription state: the handler survives reconnects — every
	// fresh handshake against a push-capable daemon re-arms the
	// server-side subscription (see ensureConnLocked).
	pushMu         sync.Mutex
	pushHandler    func(cluster.NodeSummary)
	pushesReceived atomic.Int64
}

var _ federation.Client = (*Client)(nil)
var _ federation.DeltaSummaryClient = (*Client)(nil)

// DialOptions configures a client.
type DialOptions struct {
	// Timeout bounds dialing and each request round-trip
	// (default 30s; training large nodes dominates it).
	Timeout time.Duration
}

// Dial connects to a participant daemon and learns its node id via
// the hello; a daemon too old to speak v2 fails it with ErrPeerTooOld.
func Dial(addr string, opts DialOptions) (*Client, error) {
	return DialContext(context.Background(), addr, opts)
}

// DialContext is Dial bounded by ctx.
func DialContext(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	c := &Client{
		addr:          addr,
		timeout:       opts.Timeout,
		inflightGauge: telemetry.Default().Gauge("qens_wire_inflight_rpcs", telemetry.L("peer", addr)...),
	}
	c.mu.Lock()
	conn, err := c.ensureConnLocked(ctx)
	c.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if conn.nodeID == "" {
		c.Close()
		return nil, fmt.Errorf("transport: dial %s: daemon returned no node id", addr)
	}
	c.id = conn.nodeID
	return c, nil
}

// ID implements federation.Client.
func (c *Client) ID() string { return c.id }

// Addr returns the daemon address.
func (c *Client) Addr() string { return c.addr }

// InflightRPCs reports how many RPCs this client has pipelined on the
// wire right now.
func (c *Client) InflightRPCs() int64 { return c.inflight.Load() }

// Close tears down the connection, failing any in-flight calls.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// ensureConnLocked dials and handshakes if no live connection exists.
// Caller holds c.mu.
func (c *Client) ensureConnLocked(ctx context.Context) (*wireConn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	d := net.Dialer{Timeout: c.timeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	conn, err := handshake(ctx, nc, c)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.conn = conn
	// A registered push handler survives reconnects: re-arm the
	// server-side subscription on the fresh connection. The subscribe
	// round-trip runs on its own goroutine, off c.mu — a slow peer must
	// not block every other client call behind the connection lock for
	// the RPC's duration. A subscribe that gets no answer drops the
	// connection: nothing else would ever redial a socket that still
	// serves pulls, and the node would stay pull-only for good — the
	// next RPC redials and re-arms instead. Duplicate subscribes are
	// idempotent server-side, so racing SubscribeSummaries is harmless.
	if conn.pushOK && c.hasPushHandler() {
		go func() {
			subCtx, cancel := context.WithTimeout(context.Background(), c.timeout)
			defer cancel()
			if _, err := conn.do(subCtx, c, &request{Type: typeSubscribe}); err != nil {
				c.dropConn(conn)
			}
		}()
	}
	return conn, nil
}

// hasPushHandler reports whether SubscribeSummaries registered a
// handler.
func (c *Client) hasPushHandler() bool {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	return c.pushHandler != nil
}

// dispatchPush routes one unsolicited summary push to the registered
// handler (dropped when none is registered — the server only pushes to
// subscribed connections, but a handler swap can race a frame).
func (c *Client) dispatchPush(s cluster.NodeSummary) {
	c.pushMu.Lock()
	h := c.pushHandler
	c.pushMu.Unlock()
	c.pushesReceived.Add(1)
	if h != nil {
		h(s)
	}
}

// SubscribeSummaries registers handler for server-pushed summary
// deltas and arms the subscription on the daemon. It returns ok=true
// when the peer accepted the subscription; ok=false (with nil error)
// when the peer cannot push — a region server, or a pre-push daemon —
// in which case the caller keeps pulling forever. The handler runs on
// the connection's reader goroutine and must hand off quickly.
func (c *Client) SubscribeSummaries(ctx context.Context, handler func(cluster.NodeSummary)) (bool, error) {
	c.pushMu.Lock()
	c.pushHandler = handler
	c.pushMu.Unlock()
	c.mu.Lock()
	conn, err := c.ensureConnLocked(ctx)
	c.mu.Unlock()
	if err != nil {
		return false, err
	}
	if !conn.pushOK {
		return false, nil
	}
	// ensureConnLocked only arms fresh connections; arm the current one
	// explicitly. Subscribing twice is idempotent server-side.
	resp, err := conn.do(ctx, c, &request{Type: typeSubscribe})
	if err != nil {
		if errors.Is(err, ErrUnknownType) {
			return false, nil
		}
		return false, err
	}
	if resp.Error != "" {
		if resp.Code == CodeUnknownType {
			return false, nil
		}
		return false, errors.New(resp.Error)
	}
	return true, nil
}

// PushesReceived reports how many summary push frames this client has
// dispatched (across all connections in its lifetime).
func (c *Client) PushesReceived() int64 { return c.pushesReceived.Load() }

// dropConn discards conn if it is still the client's current
// connection, so the next call redials.
func (c *Client) dropConn(conn *wireConn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
}

// deadlineFor merges the client timeout with the context deadline,
// returning whichever comes first.
func (c *Client) deadlineFor(ctx context.Context) time.Time {
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// roundTrip sends one request and reads its response, retrying once
// on a stale connection. The context bounds the whole exchange.
func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	if err := ctx.Err(); err != nil {
		return response{}, err
	}
	// Propagate the caller's deadline into the envelope so the daemon
	// can abandon work — not just the response — once it expires.
	if d, ok := ctx.Deadline(); ok {
		req.DeadlineUnixMS = d.UnixMilli()
	}
	c.inflight.Add(1)
	c.inflightGauge.Set(float64(c.inflight.Load()))
	defer func() {
		c.inflightGauge.Set(float64(c.inflight.Add(-1)))
	}()

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return response{}, fmt.Errorf("%w (after %v)", err, lastErr)
			}
			return response{}, err
		}
		c.mu.Lock()
		conn, err := c.ensureConnLocked(ctx)
		c.mu.Unlock()
		if err != nil {
			lastErr = wrapCtxErr(ctx, err)
			continue
		}
		resp, err := conn.do(ctx, c, &req)
		if err != nil {
			if !isConnError(err) {
				// Server-side application error or caller
				// cancellation: the connection itself is fine.
				return response{}, err
			}
			lastErr = wrapCtxErr(ctx, err)
			c.dropConn(conn)
			continue
		}
		if resp.Error != "" {
			if resp.Code == CodeUnknownType {
				return response{}, fmt.Errorf("%w: %s", ErrUnknownType, resp.Error)
			}
			// If the caller's context has expired, the server-side
			// failure is almost certainly the propagated deadline
			// biting remotely; attribute it so errors.Is matches.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return response{}, fmt.Errorf("%w: %s", ctxErr, resp.Error)
			}
			return response{}, errors.New(resp.Error)
		}
		return resp, nil
	}
	return response{}, lastErr
}

// connError marks transport-level failures that invalidate the
// connection (as opposed to per-call application or context errors).
type connError struct{ err error }

func (e connError) Error() string { return e.err.Error() }
func (e connError) Unwrap() error { return e.err }

func isConnError(err error) bool {
	var ce connError
	return errors.As(err, &ce)
}

// wrapCtxErr attributes an I/O failure to the context when the context
// is what killed the exchange, so callers can match context.Canceled /
// DeadlineExceeded with errors.Is.
func wrapCtxErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(err, ctxErr) {
		return fmt.Errorf("%w: %v", ctxErr, err)
	}
	return err
}

// Ping verifies the daemon is reachable and returns its node id.
func (c *Client) Ping() (string, error) {
	resp, err := c.roundTrip(context.Background(), request{Type: typePing})
	if err != nil {
		return "", err
	}
	return resp.NodeID, nil
}

// BytesMoved reports the actual wire bytes this client has sent and
// received — ground truth for the communication accounting the
// experiments otherwise estimate from parameter sizes.
func (c *Client) BytesMoved() (out, in int64) {
	return c.bytesOut.Load(), c.bytesIn.Load()
}

// Summary implements federation.Client.
func (c *Client) Summary(ctx context.Context) (cluster.NodeSummary, error) {
	resp, err := c.roundTrip(ctx, request{Type: typeSummary})
	if err != nil {
		return cluster.NodeSummary{}, err
	}
	if resp.Summary == nil {
		return cluster.NodeSummary{}, errors.New("transport: daemon returned no summary")
	}
	sum := *resp.Summary
	if sum.Epoch == 0 {
		// Older daemons only stamp the envelope; lift it so the
		// leader's registry always sees a versioned advertisement.
		sum.Epoch = resp.SummaryEpoch
	}
	return sum, nil
}

// SummaryIfChanged implements the registry's delta-refresh probe: it
// advertises the summary epoch the caller already holds and returns
// unchanged=true (zero summary) when the daemon confirms it is still
// current, or the fresh summary otherwise. known == 0 always fetches.
// Daemons predating the epoch-conditional fast path skip the request
// section by length and answer with the full summary — the probe
// degrades to Summary, never to an error.
func (c *Client) SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error) {
	resp, err := c.roundTrip(ctx, request{Type: typeSummary, KnownSummaryEpoch: known})
	if err != nil {
		return cluster.NodeSummary{}, false, err
	}
	if resp.SummaryUnchanged {
		return cluster.NodeSummary{}, true, nil
	}
	if resp.Summary == nil {
		return cluster.NodeSummary{}, false, errors.New("transport: daemon returned no summary")
	}
	sum := *resp.Summary
	if sum.Epoch == 0 {
		sum.Epoch = resp.SummaryEpoch
	}
	return sum, false, nil
}

// Train implements federation.Client. The request's trace/span IDs
// (if any) are lifted into the wire envelope so the daemon can
// attribute its logs and timings to the originating query.
func (c *Client) Train(ctx context.Context, req federation.TrainRequest) (federation.TrainResponse, error) {
	resp, err := c.roundTrip(ctx, request{Type: typeTrain, TraceID: req.TraceID, SpanID: req.SpanID, Train: &req})
	if err != nil {
		return federation.TrainResponse{}, err
	}
	if resp.Train == nil {
		return federation.TrainResponse{}, errors.New("transport: daemon returned no train response")
	}
	out := *resp.Train
	if out.SummaryEpoch == 0 {
		out.SummaryEpoch = resp.SummaryEpoch
	}
	return out, nil
}

// Evaluate implements federation.Client.
func (c *Client) Evaluate(ctx context.Context, req federation.EvalRequest) (federation.EvalResponse, error) {
	resp, err := c.roundTrip(ctx, request{Type: typeEvaluate, TraceID: req.TraceID, SpanID: req.SpanID, Eval: &req})
	if err != nil {
		return federation.EvalResponse{}, err
	}
	if resp.Eval == nil {
		return federation.EvalResponse{}, errors.New("transport: daemon returned no eval response")
	}
	out := *resp.Eval
	if out.SummaryEpoch == 0 {
		// Older daemons only stamp the envelope; lift it so
		// evaluations double as drift signals like train responses.
		out.SummaryEpoch = resp.SummaryEpoch
	}
	return out, nil
}

// ---- connection state ----

// wireConn is one live connection past its hello. It multiplexes:
// callers register in pending, write their tagged frame under writeMu,
// and the readLoop goroutine routes tagged responses back.
type wireConn struct {
	nc     net.Conn // raw conn: deadlines and Close
	ncIO   net.Conn // counted wrapper: all reads/writes
	nodeID string

	writeMu sync.Mutex // interleaved frame writes
	nextID  atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]chan response

	// pushOK records the handshake's summary-push capability; onPush
	// (armed before the readLoop starts, immutable afterwards) receives
	// unsolicited push frames instead of the pending-call map.
	pushOK bool
	onPush func(cluster.NodeSummary)

	closeOnce sync.Once
	closed    chan struct{}
	closeErr  atomic.Pointer[error]
}

// countedConn adapts a net.Conn so every read/write feeds the
// client's byte counters (atomics: the mux reader and concurrent
// writers race on them by design).
type countedConn struct {
	net.Conn
	out *atomic.Int64
	in  *atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// handshake runs the hello on a fresh TCP connection: one JSON ping
// advertising wire_proto 2 and push support, answered by one JSON
// response carrying the peer's id and capabilities. A peer that answers
// without wire_proto >= 2 only speaks the retired JSON codec and is
// refused (ErrPeerTooOld); past the hello every frame is binary v2.
func handshake(ctx context.Context, nc net.Conn, c *Client) (*wireConn, error) {
	counted := &countedConn{Conn: nc, out: &c.bytesOut, in: &c.bytesIn}
	// Pre-push daemons ignore summary_push and leave the reply's unset.
	hello := request{Type: typePing, WireProto: WireProtoV2, SummaryPush: true}
	_ = nc.SetDeadline(c.deadlineFor(ctx))
	if err := writeFrame(counted, hello); err != nil {
		return nil, err
	}
	var resp response
	if err := readFrame(counted, &resp); err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Time{})
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	if resp.WireProto < WireProtoV2 {
		return nil, fmt.Errorf("%w (node %q)", ErrPeerTooOld, resp.NodeID)
	}
	conn := &wireConn{
		nc:      nc,
		ncIO:    counted,
		nodeID:  resp.NodeID,
		pending: make(map[uint64]chan response),
		pushOK:  resp.SummaryPush,
		onPush:  c.dispatchPush,
		closed:  make(chan struct{}),
	}
	go conn.readLoop()
	return conn, nil
}

// Close tears the connection down and fails every pending call.
func (w *wireConn) Close() error {
	w.closeWithErr(errors.New("transport: connection closed"))
	return nil
}

func (w *wireConn) closeWithErr(err error) {
	w.closeOnce.Do(func() {
		w.closeErr.Store(&err)
		close(w.closed)
		w.nc.Close()
		w.pendMu.Lock()
		pending := w.pending
		w.pending = nil
		w.pendMu.Unlock()
		for _, ch := range pending {
			close(ch)
		}
	})
}

func (w *wireConn) err() error {
	if p := w.closeErr.Load(); p != nil {
		return *p
	}
	return errors.New("transport: connection closed")
}

// do issues one multiplexed RPC: register a pending slot, write the
// tagged frame, then wait for the reader to deliver the matching
// response. Cancellation and per-call timeouts abandon the slot
// without poisoning the connection — the tagged response is dropped
// whenever it arrives.
func (w *wireConn) do(ctx context.Context, c *Client, req *request) (response, error) {
	id := w.nextID.Add(1)
	ch := make(chan response, 1)

	w.pendMu.Lock()
	if w.pending == nil {
		w.pendMu.Unlock()
		return response{}, connError{w.err()}
	}
	w.pending[id] = ch
	w.pendMu.Unlock()

	// Bail before touching the socket if the caller already gave up:
	// skipping the write keeps the shared stream pristine.
	if err := ctx.Err(); err != nil {
		w.forget(id)
		return response{}, err
	}

	// Writes interleave whole frames under the write lock. The write
	// deadline is the client timeout — never the per-call context —
	// because a deadline firing mid-write would leave half a frame on
	// the shared stream and desynchronize every other call on it.
	// Cancellation is instead handled below by abandoning the slot.
	w.writeMu.Lock()
	_ = w.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	_, err := writeWireFrame(w.ncIO, func(b []byte) ([]byte, error) { return appendWireRequest(b, id, req) })
	w.writeMu.Unlock()
	if err != nil {
		// A failed write may have emitted a partial frame; the stream
		// is unrecoverable, so tear the connection down immediately
		// rather than letting other in-flight calls hang on it.
		w.forget(id)
		w.closeWithErr(connError{fmt.Errorf("transport: write frame: %w", err)})
		return response{}, connError{err}
	}

	// The timer enforces only the client-level timeout; the context
	// deadline already has its own select arm, so folding it into the
	// timer would just race ctx.Done() and misattribute the error. A
	// deadline due before the timeout always wins that race, so then no
	// timer is armed at all (a nil channel never fires).
	var timeout <-chan time.Time
	if dl, ok := ctx.Deadline(); !ok || !dl.Before(time.Now().Add(c.timeout)) {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return response{}, connError{w.err()}
		}
		return resp, nil
	case <-ctx.Done():
		w.forget(id)
		return response{}, ctx.Err()
	case <-timeout:
		w.forget(id)
		if err := ctx.Err(); err != nil {
			return response{}, err
		}
		return response{}, fmt.Errorf("transport: rpc %d timed out after %v", id, c.timeout)
	case <-w.closed:
		w.forget(id)
		return response{}, connError{w.err()}
	}
}

// forget abandons a pending call slot (cancellation, timeout, or
// write failure). A response arriving later finds no slot and is
// dropped by the readLoop.
func (w *wireConn) forget(id uint64) {
	w.pendMu.Lock()
	delete(w.pending, id)
	w.pendMu.Unlock()
}

// readLoop is the connection's single reader goroutine: it
// decodes tagged response frames and routes each to its pending
// caller. Unsolicited push frames (their own frame kind and request-id
// space) are dispatched to the subscriber instead of erroring. Any
// read or decode error tears the connection down, failing all
// in-flight calls.
func (w *wireConn) readLoop() {
	for {
		buf, err := readFrameBody(w.ncIO)
		if err != nil {
			w.closeWithErr(connError{fmt.Errorf("transport: read frame: %w", err)})
			return
		}
		if len(*buf) >= 2 && (*buf)[0] == wireMagic && (*buf)[1] == framePush {
			_, sum, perr := decodeWirePush(*buf)
			putFrameBuf(buf)
			if perr != nil {
				w.closeWithErr(connError{perr})
				return
			}
			if w.onPush != nil {
				w.onPush(sum)
			}
			continue
		}
		id, resp, err := decodeWireResponse(*buf)
		putFrameBuf(buf)
		if err != nil {
			w.closeWithErr(connError{err})
			return
		}
		w.pendMu.Lock()
		ch, ok := w.pending[id]
		if ok {
			delete(w.pending, id)
		}
		w.pendMu.Unlock()
		if ok {
			ch <- resp
		}
	}
}
