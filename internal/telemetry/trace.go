package telemetry

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Per-query tracing. The leader mints one trace ID per query and opens
// spans for the phases of its execution (selection, per-node train
// rounds, aggregation). Span contexts propagate across the transport
// wire envelope so a qensd daemon's logs are attributable to the
// originating query, and finished spans export as JSONL — one JSON
// object per line — for the experiment harness to consume.

// Span is one finished timed operation within a trace.
type Span struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	// DurationMS duplicates End-Start in milliseconds for direct
	// consumption by plotting/report tooling.
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Tracer collects finished spans and optionally streams them as JSONL
// to a writer. A nil *Tracer is a valid no-op tracer: every method on
// it (and on the span handles it returns) is safe to call, so
// instrumented code never branches on "is tracing on".
type Tracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer // buffers the JSONL sink; nil when w is nil
	enc *json.Encoder // persistent encoder over bw (one per tracer, not per span)
	// spans holds the finished spans retained in memory. Under a
	// retention cap it is a ring allocated once by SetRetention: it
	// fills by append, then each span overwrites the oldest, at head.
	spans []Span
	head  int // oldest span once the ring is full, else 0
	max   int // retention cap (0 = unlimited)
}

// NewTracer returns a tracer streaming finished spans to w as JSONL
// (w may be nil to only retain them in memory). The sink is buffered:
// call Flush (or WriteJSONL, which flushes) before handing the
// underlying writer to a reader or closing it.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{}
	if w != nil {
		t.bw = bufio.NewWriter(w)
		t.enc = json.NewEncoder(t.bw)
	}
	return t
}

// SetRetention caps the number of finished spans kept in memory
// (oldest dropped first; n <= 0 means unlimited). The cap's storage is
// allocated here, once, so recording at the cap allocates nothing.
// JSONL streaming is unaffected.
func (t *Tracer) SetRetention(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.appendOrdered(nil)
	if n > 0 {
		if len(kept) > n {
			kept = kept[len(kept)-n:]
		}
		kept = append(make([]Span, 0, n), kept...)
	}
	t.spans, t.head, t.max = kept, 0, n
}

// appendOrdered appends the retained spans to dst in completion order.
// Callers hold mu.
func (t *Tracer) appendOrdered(dst []Span) []Span {
	return append(append(dst, t.spans[t.head:]...), t.spans[:t.head]...)
}

// defaultTracer is the process-wide tracer; nil (no-op) until a main
// installs one via SetDefaultTracer.
var (
	defaultTracerMu sync.RWMutex
	defaultTracer   *Tracer
)

// DefaultTracer returns the process-wide tracer (possibly nil, which
// is a valid no-op tracer).
func DefaultTracer() *Tracer {
	defaultTracerMu.RLock()
	defer defaultTracerMu.RUnlock()
	return defaultTracer
}

// SetDefaultTracer installs the process-wide tracer.
func SetDefaultTracer(t *Tracer) {
	defaultTracerMu.Lock()
	defer defaultTracerMu.Unlock()
	defaultTracer = t
}

// newID returns a 16-hex-char random identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; fall back
		// to a timestamp so tracing degrades instead of panicking.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

// SpanHandle is an open span. End finishes it; Child opens a sub-span
// sharing the trace ID. A nil handle is a valid no-op.
type SpanHandle struct {
	tracer  *Tracer
	traceID string
	spanID  string
	parent  string
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs map[string]string
	done  bool
}

// StartTrace mints a fresh trace ID and opens its root span.
func (t *Tracer) StartTrace(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{
		tracer:  t,
		traceID: newID(),
		spanID:  newID(),
		name:    name,
		start:   time.Now(),
	}
}

// Child opens a sub-span under sp sharing its trace ID.
func (sp *SpanHandle) Child(name string) *SpanHandle {
	if sp == nil {
		return nil
	}
	return &SpanHandle{
		tracer:  sp.tracer,
		traceID: sp.traceID,
		spanID:  newID(),
		parent:  sp.spanID,
		name:    name,
		start:   time.Now(),
	}
}

// TraceID returns the span's trace identifier ("" on a nil handle).
func (sp *SpanHandle) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.traceID
}

// SpanID returns the span's own identifier ("" on a nil handle).
func (sp *SpanHandle) SpanID() string {
	if sp == nil {
		return ""
	}
	return sp.spanID
}

// SetAttr attaches a key=value attribute to the span.
func (sp *SpanHandle) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.attrs == nil {
		sp.attrs = map[string]string{}
	}
	sp.attrs[key] = value
}

// End finishes the span, recording err (may be nil) and handing the
// finished span to the tracer. End is idempotent.
func (sp *SpanHandle) End(err error) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.done {
		sp.mu.Unlock()
		return
	}
	sp.done = true
	end := time.Now()
	span := Span{
		TraceID:    sp.traceID,
		SpanID:     sp.spanID,
		ParentID:   sp.parent,
		Name:       sp.name,
		Start:      sp.start,
		End:        end,
		DurationMS: float64(end.Sub(sp.start)) / float64(time.Millisecond),
		Attrs:      sp.attrs,
	}
	if err != nil {
		span.Error = err.Error()
	}
	sp.mu.Unlock()
	sp.tracer.record(span)
}

// record stores (and optionally streams) one finished span.
func (t *Tracer) record(span Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max <= 0 || len(t.spans) < t.max {
		t.spans = append(t.spans, span)
	} else {
		t.spans[t.head] = span
		t.head = (t.head + 1) % t.max
	}
	if t.enc != nil {
		_ = t.enc.Encode(span) // best effort: a broken sink must not fail queries
	}
}

// RecordSpan records an externally finished span — typically one
// shipped back from a remote process so the leader's tracer holds the
// complete cross-process tree. A missing SpanID is minted, and a zero
// DurationMS is derived from End-Start. No-op on a nil tracer.
func (t *Tracer) RecordSpan(span Span) {
	if t == nil {
		return
	}
	if span.SpanID == "" {
		span.SpanID = newID()
	}
	if span.DurationMS == 0 && span.End.After(span.Start) {
		span.DurationMS = float64(span.End.Sub(span.Start)) / float64(time.Millisecond)
	}
	t.record(span)
}

// Flush forces buffered JSONL output through to the underlying sink.
// Call before closing the sink or handing it to a reader; spans
// recorded afterwards buffer again. No-op on a nil tracer or a
// memory-only one.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw == nil {
		return nil
	}
	return t.bw.Flush()
}

// Spans returns a copy of the finished spans (nil on a nil tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendOrdered(make([]Span, 0, len(t.spans)))
}

// TraceSpans returns the retained spans belonging to one trace, in
// completion order (nil on a nil tracer or an unknown trace).
func (t *Tracer) TraceSpans(traceID string) []Span {
	if t == nil || traceID == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, part := range [2][]Span{t.spans[t.head:], t.spans[:t.head]} {
		for _, s := range part {
			if s.TraceID == traceID {
				out = append(out, s)
			}
		}
	}
	return out
}

// Reset drops the retained spans (the JSONL sink is untouched). A
// retention ring keeps its storage.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.spans)
	t.spans, t.head = t.spans[:0], 0
}

// WriteJSONL exports every retained span to w, one JSON object per
// line — the same schema the streaming sink emits. It also flushes the
// tracer's own buffered sink, so a drain that exports retained spans
// leaves the streaming file complete too.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if err := t.Flush(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for _, span := range t.Spans() {
		if err := enc.Encode(span); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL span stream (blank lines skipped).
func ReadJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for {
		var s Span
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, s)
	}
}
