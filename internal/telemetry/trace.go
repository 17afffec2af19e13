package telemetry

import (
	"bufio"
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

// Span is one finished timed operation within a trace — the read form
// a Tracer builds from its records, and the JSONL schema.
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
//
// Recording a span allocates nothing: the tracer keeps plain records
// (binary IDs, attributes inline) and builds the Span read form only
// when someone reads — Spans, TraceSpans or the JSONL sink.
// An always-on trace therefore costs one allocation per span handle.
type Tracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer // buffers the JSONL sink; nil when w is nil
	enc *json.Encoder // persistent encoder over bw (one per tracer, not per span)
	// recs holds the finished spans retained in memory. Under a
	// retention cap it is a ring allocated once by SetRetention: it
	// fills by append, then each span overwrites the oldest, at head.
	recs []record
	head int // oldest record once the ring is full, else 0
	max  int // retention cap (0 = unlimited)
}

// inlineAttrs is how many attributes a record holds without a map; no
// span sets more than 3 today, so the overflow map stays nil.
const inlineAttrs = 4

// record is one span as the tracer stores it: plain values, copied by
// value into the ring when the span ends.
type record struct {
	trace, id, parent ID
	name              string
	start, end        time.Time
	err               string
	nattrs            int
	attrs             [inlineAttrs][2]string // key, value
	extra             map[string]string      // attributes past the inline ones
}

// setAttr sets key to value, overwriting an earlier value of key. The
// overflow map is used only once the inline attrs are full, so a key
// is never in both.
func (r *record) setAttr(key, value string) {
	for i := range r.attrs[:r.nattrs] {
		if r.attrs[i][0] == key {
			r.attrs[i][1] = value
			return
		}
	}
	if r.nattrs < inlineAttrs {
		r.attrs[r.nattrs] = [2]string{key, value}
		r.nattrs++
		return
	}
	if r.extra == nil {
		r.extra = map[string]string{}
	}
	r.extra[key] = value
}

// toSpan builds the Span read form of r.
func (r *record) toSpan() Span {
	s := Span{
		TraceID:  r.trace.String(),
		SpanID:   r.id.String(),
		ParentID: r.parent.String(),
		Name:     r.name,
		Start:    r.start,
		End:      r.end,
		Error:    r.err,
	}
	if d := r.end.Sub(r.start); d > 0 {
		s.DurationMS = float64(d) / float64(time.Millisecond)
	}
	if n := r.nattrs + len(r.extra); n > 0 {
		s.Attrs = make(map[string]string, n)
		for _, kv := range r.attrs[:r.nattrs] {
			s.Attrs[kv[0]] = kv[1]
		}
		for k, v := range r.extra {
			s.Attrs[k] = v
		}
	}
	return s
}

// NewTracer returns a tracer streaming finished spans to w as JSONL
// (w may be nil to only retain them in memory). The sink is buffered:
// call Flush before handing the underlying writer to a reader or
// closing it.
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
	kept := t.appendOrdered(nil, 0)
	if n > 0 {
		if len(kept) > n {
			kept = kept[len(kept)-n:]
		}
		kept = append(make([]record, 0, n), kept...)
	}
	t.recs, t.head, t.max = kept, 0, n
}

// appendOrdered appends the retained records of trace (every trace
// when it is 0) to dst in completion order. Callers hold mu.
func (t *Tracer) appendOrdered(dst []record, trace ID) []record {
	for _, part := range [2][]record{t.recs[t.head:], t.recs[:t.head]} {
		if trace == 0 {
			dst = append(dst, part...)
			continue
		}
		for i := range part {
			if part[i].trace == trace {
				dst = append(dst, part[i])
			}
		}
	}
	return dst
}

// defaultTracer is the process-wide tracer; nil (no-op) until a main
// installs one via SetDefaultTracer. Only a federation.Leader with no
// tracer of its own reads it: `qens -trace` installs one for the
// leaders its experiments build.
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

// SpanHandle is an open span. End finishes it; Child opens a sub-span
// sharing the trace ID. A nil handle is a valid no-op. The handle is
// the only allocation a span costs.
type SpanHandle struct {
	tracer *Tracer
	mu     sync.Mutex
	rec    record // trace, id, parent, name and start never change
	done   bool
}

// StartTrace mints a fresh trace ID and opens its root span.
func (t *Tracer) StartTrace(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{tracer: t, rec: record{trace: newID(), id: newID(), name: name, start: time.Now()}}
}

// Child opens a sub-span under sp sharing its trace ID.
func (sp *SpanHandle) Child(name string) *SpanHandle {
	if sp == nil {
		return nil
	}
	return &SpanHandle{tracer: sp.tracer,
		rec: record{trace: sp.rec.trace, id: newID(), parent: sp.rec.id, name: name, start: time.Now()}}
}

// Trace returns the span's trace ID (0 on a nil handle).
func (sp *SpanHandle) Trace() ID {
	if sp == nil {
		return 0
	}
	return sp.rec.trace
}

// Span returns the span's own ID (0 on a nil handle).
func (sp *SpanHandle) Span() ID {
	if sp == nil {
		return 0
	}
	return sp.rec.id
}

// SetAttr attaches a key=value attribute to the span. After End it is
// a no-op: the finished span is already retained, and stays as it was.
func (sp *SpanHandle) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !sp.done {
		sp.rec.setAttr(key, value)
	}
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
	sp.rec.end = time.Now()
	if err != nil {
		sp.rec.err = err.Error()
	}
	sp.mu.Unlock()
	// done is set, so nothing writes sp.rec any more.
	sp.tracer.record(&sp.rec)
}

// record stores (and optionally streams) one finished span by value.
func (t *Tracer) record(rec *record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max <= 0 || len(t.recs) < t.max {
		t.recs = append(t.recs, *rec)
	} else {
		t.recs[t.head] = *rec
		t.head = (t.head + 1) % t.max
	}
	if t.enc != nil {
		_ = t.enc.Encode(rec.toSpan()) // best effort: a broken sink must not fail queries
	}
}

// RecordRemote records a finished phase span reported by a remote
// process — a node, or a regional leader — under the local span that
// solicited it, so the tracer holds the complete cross-process tree.
// proc names the owning process and is stamped as both the "node" and
// the "proc" attribute. No-op on a nil tracer or a nil parent.
func (t *Tracer) RecordRemote(parent *SpanHandle, proc, name string, start, end time.Time) {
	if t == nil || parent == nil {
		return
	}
	rec := record{trace: parent.rec.trace, id: newID(), parent: parent.rec.id,
		name: name, start: start, end: end, nattrs: 2}
	rec.attrs[0] = [2]string{"node", proc}
	rec.attrs[1] = [2]string{"proc", proc}
	t.record(&rec)
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

// Spans returns the finished spans in completion order (nil on a nil
// tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.read(0)
}

// TraceSpans returns the retained spans belonging to one trace, in
// completion order (nil on a nil tracer or an unknown trace).
func (t *Tracer) TraceSpans(traceID string) []Span {
	id, err := ParseID(traceID)
	if t == nil || err != nil || id == 0 {
		return nil
	}
	return t.read(id)
}

// read copies the retained records of trace (every trace when it is 0)
// under the lock and renders them outside it.
func (t *Tracer) read(trace ID) []Span {
	t.mu.Lock()
	var recs []record
	if trace == 0 {
		recs = make([]record, 0, len(t.recs))
	}
	recs = t.appendOrdered(recs, trace)
	t.mu.Unlock()
	if recs == nil {
		return nil
	}
	out := make([]Span, len(recs))
	for i := range recs {
		out[i] = recs[i].toSpan()
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
	clear(t.recs)
	t.recs, t.head = t.recs[:0], 0
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
