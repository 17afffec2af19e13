package telemetry

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.StartTrace("query")
	root.SetAttr("query", "q-1")
	child := root.Child("selection")
	child.End(nil)
	failing := root.Child("train")
	failing.SetAttr("node", "node-2")
	failing.End(errors.New("boom"))
	root.End(nil)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	traceID := spans[0].TraceID
	if traceID == "" {
		t.Fatal("empty trace id")
	}
	for _, s := range spans {
		if s.TraceID != traceID {
			t.Fatalf("span %s has trace %s, want %s", s.Name, s.TraceID, traceID)
		}
		if s.SpanID == "" {
			t.Fatalf("span %s has no span id", s.Name)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	// Children finish first; root is last.
	if spans[2].Name != "query" || spans[2].ParentID != "" {
		t.Fatalf("root span = %+v", spans[2])
	}
	if spans[0].ParentID != spans[2].SpanID || spans[1].ParentID != spans[2].SpanID {
		t.Fatal("children do not point at the root span")
	}
	if spans[1].Error != "boom" || spans[1].Attrs["node"] != "node-2" {
		t.Fatalf("failing span = %+v", spans[1])
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("noop")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every method on a nil handle must be safe.
	sp.SetAttr("k", "v")
	child := sp.Child("x")
	child.End(nil)
	sp.End(errors.New("ignored"))
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Fatal("nil span has ids")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
	tr.Reset()
	tr.SetRetention(5)
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.StartTrace("query")
	root.Child("selection").End(nil)
	root.End(nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	spans, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Name != "selection" || spans[1].Name != "query" {
		t.Fatalf("parsed spans %+v", spans)
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Fatal("JSONL round trip lost the shared trace id")
	}

	// WriteJSONL re-export matches the streamed form.
	var again bytes.Buffer
	if err := tr.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	reparsed, err := ReadJSONL(&again)
	if err != nil || len(reparsed) != 2 {
		t.Fatalf("re-export parse: %v (%d spans)", err, len(reparsed))
	}
}

func TestTracerEndIdempotent(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.StartTrace("once")
	sp.End(nil)
	sp.End(nil)
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("%d spans after double End", n)
	}
}

func TestTracerRetention(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetRetention(3)
	for i := 0; i < 10; i++ {
		tr.StartTrace("t").End(nil)
	}
	if n := len(tr.Spans()); n != 3 {
		t.Fatalf("retained %d spans, want 3", n)
	}
}

// TestTracerRetentionDropsOldestConcurrent verifies the retention trim
// keeps a suffix of the record order even when spans End concurrently:
// per goroutine, the retained indices must be a contiguous run ending
// at that goroutine's last span (an earlier span surviving a later one
// would mean the trim dropped from the middle).
func TestTracerRetentionDropsOldestConcurrent(t *testing.T) {
	const (
		workers = 8
		each    = 200
		keep    = 50
	)
	tr := NewTracer(nil)
	tr.SetRetention(keep)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.StartTrace("t")
				sp.SetAttr("worker", strconv.Itoa(w))
				sp.SetAttr("seq", strconv.Itoa(i))
				sp.End(nil)
			}
		}(w)
	}
	wg.Wait()

	spans := tr.Spans()
	if len(spans) != keep {
		t.Fatalf("retained %d spans, want %d", len(spans), keep)
	}
	perWorker := map[string][]int{}
	for _, s := range spans {
		seq, err := strconv.Atoi(s.Attrs["seq"])
		if err != nil {
			t.Fatalf("span missing seq attr: %+v", s)
		}
		perWorker[s.Attrs["worker"]] = append(perWorker[s.Attrs["worker"]], seq)
	}
	for w, seqs := range perWorker {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] != seqs[i-1]+1 {
				t.Fatalf("worker %s retained non-contiguous seqs %v", w, seqs)
			}
		}
		if last := seqs[len(seqs)-1]; last != each-1 {
			t.Fatalf("worker %s's retained run ends at %d, want %d (oldest-first drop)", w, last, each-1)
		}
	}
}

func TestTracerRecordSpan(t *testing.T) {
	tr := NewTracer(nil)
	start := time.Now().Add(-10 * time.Millisecond)
	tr.RecordSpan(Span{TraceID: "t", Name: "node.fit", Start: start, End: start.Add(4 * time.Millisecond)})
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].SpanID == "" {
		t.Fatal("RecordSpan did not mint a span id")
	}
	if d := spans[0].DurationMS; d < 3.9 || d > 4.1 {
		t.Fatalf("derived duration %v, want ~4ms", d)
	}
	var nilTr *Tracer
	nilTr.RecordSpan(Span{TraceID: "x", Name: "noop"}) // must not panic
}

func TestTracerTraceSpans(t *testing.T) {
	tr := NewTracer(nil)
	a := tr.StartTrace("qa")
	a.Child("selection").End(nil)
	a.End(nil)
	b := tr.StartTrace("qb")
	b.End(nil)

	got := tr.TraceSpans(a.TraceID())
	if len(got) != 2 {
		t.Fatalf("trace %s has %d spans, want 2", a.TraceID(), len(got))
	}
	if got[0].Name != "selection" || got[1].Name != "qa" {
		t.Fatalf("completion order lost: %v, %v", got[0].Name, got[1].Name)
	}
	if tr.TraceSpans("") != nil || tr.TraceSpans("missing") != nil {
		t.Fatal("unknown trace returned spans")
	}
}

// TestTracerFlushBuffering: the JSONL sink is buffered, so spans are
// not visible downstream until Flush.
func TestTracerFlushBuffering(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.StartTrace("q").End(nil)
	if buf.Len() != 0 {
		t.Fatalf("sink has %d bytes before Flush (unbuffered write?)", buf.Len())
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("sink empty after Flush")
	}
	spans, err := ReadJSONL(&buf)
	if err != nil || len(spans) != 1 {
		t.Fatalf("flushed stream parse: %v (%d spans)", err, len(spans))
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartTrace("q")
				c := root.Child("work")
				c.SetAttr("i", "x")
				c.End(nil)
				root.End(nil)
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Spans()); n != 8*200*2 {
		t.Fatalf("%d spans, want %d", n, 8*200*2)
	}
}

func TestDefaultTracerInstall(t *testing.T) {
	old := DefaultTracer()
	defer SetDefaultTracer(old)
	tr := NewTracer(nil)
	SetDefaultTracer(tr)
	if DefaultTracer() != tr {
		t.Fatal("default tracer not installed")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := newID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestFormatKV(t *testing.T) {
	got := FormatKV("event", "rpc", "type", "train", "err", "bad thing", "n", 3)
	want := `event=rpc type=train err="bad thing" n=3`
	if got != want {
		t.Fatalf("FormatKV = %q, want %q", got, want)
	}
	if got := FormatKV("event", "x", "orphan"); got != `event=x msg=orphan` {
		t.Fatalf("odd-arity FormatKV = %q", got)
	}
}

// TestTracerRetentionRing pins the retention ring: once the cap is
// reached, recording overwrites the oldest span without allocating,
// every read keeps completion order, and re-capping keeps the newest.
func TestTracerRetentionRing(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetRetention(4)
	start := time.Unix(0, 0)
	span := func(i int) Span {
		return Span{TraceID: "t" + strconv.Itoa(i%2), SpanID: strconv.Itoa(i), Name: "s", Start: start, End: start.Add(time.Millisecond)}
	}
	for i := 0; i < 10; i++ {
		tr.RecordSpan(span(i))
	}
	ids := func(spans []Span) string {
		out := make([]string, len(spans))
		for i, s := range spans {
			out[i] = s.SpanID
		}
		return strings.Join(out, ",")
	}
	if got := ids(tr.Spans()); got != "6,7,8,9" {
		t.Fatalf("Spans() = %s, want 6,7,8,9", got)
	}
	if got := ids(tr.TraceSpans("t1")); got != "7,9" {
		t.Fatalf("TraceSpans(t1) = %s, want 7,9", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if back, err := ReadJSONL(&buf); err != nil || ids(back) != "6,7,8,9" {
		t.Fatalf("WriteJSONL round trip = %s (%v), want 6,7,8,9", ids(back), err)
	}

	// 100 spans per run: a trim that reallocated only every few
	// spans would still average below one allocation per span.
	s := span(10)
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			tr.RecordSpan(s)
		}
	}); n != 0 {
		t.Fatalf("100 RecordSpans at the cap allocate %v, want 0", n)
	}

	tr.SetRetention(2)
	if got := ids(tr.Spans()); got != "10,10" {
		t.Fatalf("after SetRetention(2): %s, want 10,10", got)
	}
	tr.SetRetention(0)
	for i := 11; i < 14; i++ {
		tr.RecordSpan(span(i))
	}
	if got := ids(tr.Spans()); got != "10,10,11,12,13" {
		t.Fatalf("unlimited after the ring: %s, want 10,10,11,12,13", got)
	}
	tr.Reset()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("%d spans after Reset", n)
	}
}
