package telemetry

import (
	"bytes"
	"encoding/json"
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
	if sp.Trace().String() != "" || sp.Span().String() != "" {
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

func TestTracerRecordRemote(t *testing.T) {
	tr := NewTracer(nil)
	rpc := tr.StartTrace("train")
	start := time.Now().Add(-10 * time.Millisecond)
	tr.RecordRemote(rpc, "node-3", "node.fit", start, start.Add(4*time.Millisecond))
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	s := spans[0]
	if s.SpanID == "" || s.SpanID == rpc.Span().String() {
		t.Fatalf("RecordRemote did not mint a span id: %q", s.SpanID)
	}
	if s.TraceID != rpc.Trace().String() || s.ParentID != rpc.Span().String() || s.Name != "node.fit" {
		t.Fatalf("remote span = %+v, want trace %s parent %s", s, rpc.Trace().String(), rpc.Span().String())
	}
	if len(s.Attrs) != 2 || s.Attrs["node"] != "node-3" || s.Attrs["proc"] != "node-3" {
		t.Fatalf("remote span attrs = %v", s.Attrs)
	}
	if d := s.DurationMS; d != 4 {
		t.Fatalf("derived duration %v, want 4ms", d)
	}
	// An interval that does not move forward reads zero, as a span
	// whose end is not after its start always has.
	tr.RecordRemote(rpc, "node-3", "node.queue", start, start.Add(-time.Millisecond))
	if d := tr.Spans()[1].DurationMS; d != 0 {
		t.Fatalf("backwards interval duration %v, want 0", d)
	}
	var nilTr *Tracer
	nilTr.RecordRemote(rpc, "x", "noop", start, start) // must not panic
	tr.RecordRemote(nil, "x", "noop", start, start)
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("a nil parent recorded a span: %d spans", n)
	}
}

func TestTracerTraceSpans(t *testing.T) {
	tr := NewTracer(nil)
	a := tr.StartTrace("qa")
	a.Child("selection").End(nil)
	a.End(nil)
	b := tr.StartTrace("qb")
	b.End(nil)

	got := tr.TraceSpans(a.Trace().String())
	if len(got) != 2 {
		t.Fatalf("trace %s has %d spans, want 2", a.Trace().String(), len(got))
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

// TestNewIDUnique: IDs are nonzero, render as 16 hex characters, and
// never repeat across concurrent draws.
func TestNewIDUnique(t *testing.T) {
	const workers, each = 8, 10000
	ids := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ids[w] = append(ids[w], newID())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[ID]bool, workers*each)
	for _, part := range ids {
		for _, id := range part {
			if id == 0 || len(id.String()) != 16 {
				t.Fatalf("id %d renders as %q", uint64(id), id.String())
			}
			if seen[id] {
				t.Fatalf("duplicate id %s", id)
			}
			seen[id] = true
		}
	}
}

// TestIDText pins the text form: String, AppendHex, ParseID and the
// TextMarshaler pair agree, and the zero ID is the empty string.
func TestIDText(t *testing.T) {
	for _, tc := range []struct {
		id   ID
		text string
	}{
		{0, ""},
		{1, "0000000000000001"},
		{0xcafe01, "0000000000cafe01"},
		{0xfedcba9876543210, "fedcba9876543210"},
	} {
		if got := tc.id.String(); got != tc.text {
			t.Errorf("ID(%#x).String() = %q, want %q", uint64(tc.id), got, tc.text)
		}
		if got := string(tc.id.AppendHex([]byte("x="))); got != "x="+tc.text {
			t.Errorf("AppendHex = %q", got)
		}
		back, err := ParseID(tc.text)
		if err != nil || back != tc.id {
			t.Errorf("ParseID(%q) = %s, %v", tc.text, back, err)
		}
		b, err := json.Marshal(struct {
			ID ID `json:"id,omitempty"`
		}{tc.id})
		want := `{"id":"` + tc.text + `"}`
		if tc.id == 0 {
			want = `{}`
		}
		if err != nil || string(b) != want {
			t.Errorf("json = %s (%v), want %s", b, err, want)
		}
		var u ID
		if err := u.UnmarshalText([]byte(tc.text)); err != nil || u != tc.id {
			t.Errorf("UnmarshalText(%q) = %s, %v", tc.text, u, err)
		}
	}
	for _, bad := range []string{"t 1", "cafe01", "CAFE0000000000FF", "0x00000000000001", "00000000000000001"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
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
	roots := [2]*SpanHandle{tr.StartTrace("t0"), tr.StartTrace("t1")}
	start := time.Unix(0, 0)
	// Span i belongs to trace i%2 and is labelled by its proc attr.
	span := func(i int) {
		tr.RecordRemote(roots[i%2], strconv.Itoa(i), "s", start, start.Add(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		span(i)
	}
	ids := func(spans []Span) string {
		out := make([]string, len(spans))
		for i, s := range spans {
			out[i] = s.Attrs["proc"]
		}
		return strings.Join(out, ",")
	}
	if got := ids(tr.Spans()); got != "6,7,8,9" {
		t.Fatalf("Spans() = %s, want 6,7,8,9", got)
	}
	if got := ids(tr.TraceSpans(roots[1].Trace().String())); got != "7,9" {
		t.Fatalf("TraceSpans(t1) = %s, want 7,9", got)
	}

	// 100 spans per run: a trim that reallocated only every few
	// spans would still average below one allocation per span.
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			tr.RecordRemote(roots[0], "10", "s", start, start.Add(time.Millisecond))
		}
	}); n != 0 {
		t.Fatalf("100 RecordRemotes at the cap allocate %v, want 0", n)
	}

	tr.SetRetention(2)
	if got := ids(tr.Spans()); got != "10,10" {
		t.Fatalf("after SetRetention(2): %s, want 10,10", got)
	}
	tr.SetRetention(0)
	for i := 11; i < 14; i++ {
		span(i)
	}
	if got := ids(tr.Spans()); got != "10,10,11,12,13" {
		t.Fatalf("unlimited after the ring: %s, want 10,10,11,12,13", got)
	}
	tr.Reset()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("%d spans after Reset", n)
	}
}

// traceQuery records one miss_train-shaped query trace: the root, a
// selection span, three train spans each with three node phase spans
// re-parented under it, and an aggregation span — 6 handles, 5 attrs
// and 9 remote spans.
func traceQuery(tr *Tracer, start, end time.Time) {
	root := tr.StartTrace("query")
	root.SetAttr("query", "q-1")
	root.SetAttr("selector", "query-driven")
	root.Child("selection").End(nil)
	for _, node := range [3]string{"node-0", "node-1", "node-2"} {
		train := root.Child("train")
		train.SetAttr("node", node)
		for _, phase := range [3]string{"node.queue", "node.stage", "node.fit"} {
			tr.RecordRemote(train, node, phase, start, end)
		}
		train.End(nil)
	}
	root.Child("aggregate").End(nil)
	root.End(nil)
}

// TestTraceQueryAllocs: at the ring cap, a traced query allocates its
// span handles and nothing else — no ID text, no attribute maps, no
// per-span copies.
func TestTraceQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	tr := NewTracer(nil)
	tr.SetRetention(64)
	start := time.Now()
	end := start.Add(time.Millisecond)
	for i := 0; i < 8; i++ {
		traceQuery(tr, start, end) // fill the ring
	}
	if n := testing.AllocsPerRun(100, func() { traceQuery(tr, start, end) }); n != 6 {
		t.Fatalf("a traced query allocates %v, want 6 (one per span handle)", n)
	}
	// The read form is unchanged: 15 spans, one trace, the root last.
	spans := tr.Spans()
	last := spans[len(spans)-15:]
	root := last[14]
	if root.Name != "query" || root.ParentID != "" || root.Attrs["selector"] != "query-driven" {
		t.Fatalf("root span = %+v", root)
	}
	for _, s := range last {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %s left the trace", s.Name)
		}
	}
}

// TestSetAttrAfterEnd: a finished span is retained by value, so a
// late SetAttr changes nothing a reader sees — and does not race with
// readers iterating the retained spans.
func TestSetAttrAfterEnd(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.StartTrace("q")
	sp.SetAttr("k", "before")
	sp.End(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, s := range tr.Spans() {
				for range s.Attrs {
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		sp.SetAttr("k", strconv.Itoa(i))
		sp.SetAttr("late"+strconv.Itoa(i%8), "x")
	}
	<-done
	spans := tr.Spans()
	if len(spans) != 1 || len(spans[0].Attrs) != 1 || spans[0].Attrs["k"] != "before" {
		t.Fatalf("retained span changed after End: %+v", spans)
	}
}

// TestTracerAttrOverflow: attributes past the inline ones and
// overwrites of an existing key both read back as a map would hold
// them.
func TestTracerAttrOverflow(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.StartTrace("q")
	for i := 0; i < 7; i++ {
		sp.SetAttr("k"+strconv.Itoa(i), strconv.Itoa(i))
	}
	sp.SetAttr("k1", "one")
	sp.SetAttr("k6", "six")
	sp.End(nil)
	attrs := tr.Spans()[0].Attrs
	want := map[string]string{"k0": "0", "k1": "one", "k2": "2", "k3": "3", "k4": "4", "k5": "5", "k6": "six"}
	if len(attrs) != len(want) {
		t.Fatalf("attrs = %v, want %v", attrs, want)
	}
	for k, v := range want {
		if attrs[k] != v {
			t.Fatalf("attrs = %v, want %v", attrs, want)
		}
	}
}

// BenchmarkTraceQuery records one miss_train-shaped query trace per op
// into a tracer at its retention cap — the cost an always-on trace adds
// to every query (scripts/bench_telemetry.sh gates it at 6 allocs/op,
// one per span handle).
func BenchmarkTraceQuery(b *testing.B) {
	tr := NewTracer(nil)
	tr.SetRetention(4096)
	start := time.Now()
	end := start.Add(time.Millisecond)
	for i := 0; i < 4096/15+1; i++ {
		traceQuery(tr, start, end)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceQuery(tr, start, end)
	}
}
