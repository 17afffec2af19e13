package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// fullRequest returns a request exercising every envelope field and
// every nested type the codec must carry.
func fullRequest() request {
	bounds := geometry.MustRect([]float64{-1.5, 0}, []float64{2.25, 7})
	return request{
		Type:           typeTrain,
		TraceID:        0x0ddba11,
		SpanID:         0x5ca1ab1e,
		DeadlineUnixMS: 1754464000123,
		Train: &federation.TrainRequest{
			Spec: ml.Spec{
				Kind: ml.KindNN, InputDim: 3, Hidden: []int{16, 8},
				LearningRate: 0.015, Epochs: 100,
				ValidationSplit: 0.2, Seed: 42,
			},
			Params: ml.Params{
				Kind: ml.KindNN, Dims: []int{3, 16, 8, 1},
				Values: []float64{0.1, -2.5, math.Pi, 1e-300, -0.0, math.MaxFloat64},
			},
			Clusters:    []int{0, 2, 4},
			LocalEpochs: 7,
			TraceID:     0x0ddba11,
			SpanID:      0x5ca1ab1e,
		},
		RegionPlan: &region.PlanRequest{
			Query:       query.Query{ID: "q-0ddba11", Bounds: bounds},
			Epsilon:     0.6,
			QueryDriven: true,
		},
		RegionTrain: &region.TrainRequest{
			Spec: ml.Spec{Kind: ml.KindLinear, InputDim: 2, LearningRate: 0.03, Epochs: 100, Seed: 1<<63 + 5},
			Params: ml.Params{Kind: ml.KindLinear, Dims: []int{3},
				Values: []float64{math.Copysign(0, -1), 5e-324, -math.MaxFloat64}},
			Participants: []selection.Participant{
				{NodeID: "node-A", Rank: 0.875, Clusters: []int{0, 3}},
				{NodeID: "node-B", Rank: 0.5, Clusters: []int{}}, // present, empty
				{NodeID: "node-C"}, // nil: whole local dataset
			},
			LocalEpochs: 3,
			// Trace ids ride the envelope and are mirrored back on decode.
			TraceID: 0x0ddba11,
			SpanID:  0x5ca1ab1e,
		},
	}
}

// fullRegionTrainResponse is a region round with a successful result
// carrying node spans, a failed one without (nil), one with an empty
// span list, and a region span; params hold -0 and a subnormal.
func fullRegionTrainResponse() *region.TrainResponse {
	return &region.TrainResponse{
		RegionID: "region-1",
		Epoch:    13,
		Results: []region.RoundResult{
			{
				NodeID: "node-A",
				Params: ml.Params{Kind: ml.KindLinear, Dims: []int{3},
					Values: []float64{math.Copysign(0, -1), 5e-324, 1.5}},
				SamplesUsed: 512, TotalSamples: 1200,
				TrainTime: 437 * time.Microsecond, ElapsedNS: 512000,
				Spans: []federation.NodeSpan{
					{Name: "node.queue", StartUnixNS: 1754464000123000000, DurationNS: 1500},
					{Name: "node.fit", StartUnixNS: 1754464000123001500, DurationNS: 437000},
				},
			},
			{NodeID: "node-B", Err: "node node-B: context deadline exceeded", ElapsedNS: 90},
			{NodeID: "node-C", Params: ml.Params{Kind: ml.KindLinear, Dims: []int{1}, Values: []float64{-7}},
				SamplesUsed: -1, Spans: []federation.NodeSpan{}},
		},
		Spans: []federation.NodeSpan{{Name: "region.train", StartUnixNS: 1754464000122000000, DurationNS: 900000}},
	}
}

func fullResponse() response {
	return response{
		NodeID: "node-A",
		Summary: &cluster.NodeSummary{
			NodeID:       "node-A",
			TotalSamples: 1200,
			Epoch:        9,
			Clusters: []cluster.Summary{
				{
					Bounds:   geometry.MustRect([]float64{0, 0}, []float64{1, 1}),
					Centroid: []float64{0.5, 0.5},
					Size:     600,
				},
				{
					Bounds:   geometry.MustRect([]float64{-3, 2}, []float64{-1, 8}),
					Centroid: []float64{-2, 5.5},
					Size:     600,
				},
			},
		},
		Train: &federation.TrainResponse{
			Params:       ml.Params{Kind: ml.KindLinear, Dims: []int{2}, Values: []float64{1.25, -0.5}},
			SamplesUsed:  512,
			TotalSamples: 1200,
			TrainTime:    437 * time.Millisecond,
			SummaryEpoch: 9,
			Spans: []federation.NodeSpan{
				{Name: "node.queue", StartUnixNS: 1754464000123000000, DurationNS: 1500},
				{Name: "node.stage", StartUnixNS: 1754464000123001500, DurationNS: 42000},
				{Name: "node.fit", StartUnixNS: 1754464000123043500, DurationNS: 437000000},
			},
		},
		RegionPlan: &region.PlanResponse{
			RegionID: "region-1",
			Epoch:    12,
			Ranks: []selection.NodeRank{
				{NodeID: "node-A", Overlaps: []float64{0.25, 0, 1}, Supporting: []int{0, 2},
					Potential: 1.25, Rank: 2.5 / 3, SupportingSamples: 900, TotalSamples: 1200,
					Sizes: []int{600, 300, 300}},
				// A pruned zero-rank row: no overlap vector, no support.
				{NodeID: "node-B", TotalSamples: 800, Sizes: []int{400, 400}},
				// Present but empty, which the decoder must not turn into nil.
				{NodeID: "node-C", Overlaps: []float64{}, Supporting: []int{}, Sizes: []int{}},
			},
		},
		RegionTrain: fullRegionTrainResponse(),
	}
}

// TestWireV2RequestRoundTrip: decode(encode(x)) == x for a request
// touching every field, bit-exactly (including subnormal/-0/MaxFloat
// float payloads that JSON would re-parse through decimal text).
func TestWireV2RequestRoundTrip(t *testing.T) {
	in := fullRequest()
	frame, err := appendWireRequest(nil, 77, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	id, err := decodeWireRequest(frame[4:], &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 {
		t.Fatalf("request id %d, want 77", id)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	// Float payloads must be bit-identical, not merely equal.
	sameBits(t, in.Train.Params.Values, out.Train.Params.Values)
	sameBits(t, in.RegionTrain.Params.Values, out.RegionTrain.Params.Values)
}

func TestWireV2ResponseRoundTrip(t *testing.T) {
	in := fullResponse()
	frame, err := appendWireResponse(nil, 12345, &in)
	if err != nil {
		t.Fatal(err)
	}
	id, out, err := decodeWireResponse(frame[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 12345 {
		t.Fatalf("response id %d, want 12345", id)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	for i, r := range in.RegionTrain.Results {
		sameBits(t, r.Params.Values, out.RegionTrain.Results[i].Params.Values)
	}
}

// sameBits fails unless got carries want's exact IEEE-754 bit patterns
// (reflect.DeepEqual takes -0 for +0 and refuses NaN for NaN).
func sameBits(t *testing.T, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d values, want %d", len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(v) != math.Float64bits(got[i]) {
			t.Fatalf("value %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(v))
		}
	}
}

// TestWireRegionBodiesNilVersusEmpty: every region-body slice the
// in-process value may hold as nil comes back nil, and every empty one
// comes back empty, so RegionClient answers reflect.DeepEqual the
// in-process region.Leader's.
func TestWireRegionBodiesNilVersusEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  request
		resp response
	}{
		{"nil lists",
			request{Type: typeRegionTrain, RegionTrain: &region.TrainRequest{}},
			response{RegionPlan: &region.PlanResponse{RegionID: "r"}, RegionTrain: &region.TrainResponse{RegionID: "r"}}},
		{"empty lists",
			request{Type: typeRegionTrain, RegionTrain: &region.TrainRequest{Participants: []selection.Participant{}}},
			response{RegionPlan: &region.PlanResponse{Ranks: []selection.NodeRank{}},
				RegionTrain: &region.TrainResponse{Results: []region.RoundResult{}, Spans: []federation.NodeSpan{}}}},
	} {
		frame, err := appendWireRequest(nil, 1, &tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var req request
		if _, err := decodeWireRequest(frame[4:], &req, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.req, req) {
			t.Fatalf("%s: request round trip:\n in: %+v\nout: %+v", tc.name, *tc.req.RegionTrain, *req.RegionTrain)
		}
		frame, err = appendWireResponse(nil, 2, &tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		_, resp, err := decodeWireResponse(frame[4:], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.resp, resp) {
			t.Fatalf("%s: response round trip:\n in: %+v %+v\nout: %+v %+v", tc.name,
				*tc.resp.RegionPlan, *tc.resp.RegionTrain, *resp.RegionPlan, *resp.RegionTrain)
		}
	}
}

// TestWireV2ErrorRoundTrip covers the error envelope path.
func TestWireV2ErrorRoundTrip(t *testing.T) {
	in := response{Error: `unknown request type "compress"`, Code: CodeUnknownType}
	frame, err := appendWireResponse(nil, 3, &in)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := decodeWireResponse(frame[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Error != in.Error || out.Code != CodeUnknownType {
		t.Fatalf("error round trip = %+v", out)
	}
}

// TestWireV2NaNBitPatterns: v2 carries NaN and ±Inf bit-exactly —
// payloads the v1 JSON codec cannot represent at all.
func TestWireV2NaNBitPatterns(t *testing.T) {
	payload := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	in := request{Type: typeTrain, Train: &federation.TrainRequest{
		Spec:   ml.Spec{Kind: ml.KindLinear, InputDim: 1},
		Params: ml.Params{Kind: ml.KindLinear, Dims: []int{len(payload)}, Values: payload},
	}}
	frame, err := appendWireRequest(nil, 1, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	if _, err := decodeWireRequest(frame[4:], &out, nil); err != nil {
		t.Fatal(err)
	}
	sameBits(t, payload, out.Train.Params.Values)

	// The region bodies carry them too: JSON could not.
	regionReq := request{Type: typeRegionTrain, RegionTrain: &region.TrainRequest{
		Params: ml.Params{Kind: ml.KindLinear, Dims: []int{len(payload)}, Values: payload}}}
	if frame, err = appendWireRequest(nil, 2, &regionReq); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeWireRequest(frame[4:], &out, nil); err != nil {
		t.Fatal(err)
	}
	sameBits(t, payload, out.RegionTrain.Params.Values)
	regionResp := response{RegionTrain: &region.TrainResponse{Results: []region.RoundResult{
		{Params: ml.Params{Kind: ml.KindLinear, Dims: []int{len(payload)}, Values: payload}}}}}
	if frame, err = appendWireResponse(nil, 3, &regionResp); err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeWireResponse(frame[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, payload, got.RegionTrain.Results[0].Params.Values)
}

// TestWireV2UnknownSectionSkipped: a frame with an unrecognized
// section must decode cleanly (forward compatibility).
func TestWireV2UnknownSectionSkipped(t *testing.T) {
	in := request{Type: typePing}
	frame, err := appendWireRequest(nil, 9, &in)
	if err != nil {
		t.Fatal(err)
	}
	// Append a bogus section (tag 200, 3 payload bytes) and fix the
	// frame length prefix.
	body := append(append([]byte{}, frame[4:]...), 200, 3, 0, 0, 0, 0xAA, 0xBB, 0xCC)
	var out request
	if _, err := decodeWireRequest(body, &out, nil); err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	if out.Type != typePing {
		t.Fatalf("type = %q", out.Type)
	}
}

// TestWireTraceContextSection pins tag 23: a request carries the
// trace and span as two raw u64s that decode back to the same IDs; an
// untraced request carries no section at all.
func TestWireTraceContextSection(t *testing.T) {
	req := request{Type: typeTrain, TraceID: 0xfedcba9876543210, SpanID: 1}
	frame, err := appendWireRequest(nil, 5, &req)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{secTraceCtx, 16, 0, 0, 0, 0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 1, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.HasSuffix(frame, want) {
		t.Fatalf("request frame % x does not end in the tag-23 section % x", frame, want)
	}
	var out request
	if _, err := decodeWireRequest(frame[4:], &out, nil); err != nil || out.TraceID != req.TraceID || out.SpanID != req.SpanID {
		t.Fatalf("request trace context = %s/%s (%v)", out.TraceID, out.SpanID, err)
	}

	plain := request{Type: typeTrain}
	pframe, err := appendWireRequest(nil, 5, &plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(pframe) != len(frame)-len(want) {
		t.Fatalf("untraced frame is %d bytes, traced %d: want exactly one section apart", len(pframe), len(frame))
	}
}

// retiredTraceFrame builds a frame as a peer still on the retired
// tag-2 trace section would send it: the trace and span as strings.
func retiredTraceFrame(kind byte) []byte {
	e, hdr := beginWireFrame(nil, kind, 3)
	if kind == frameRequest {
		m := e.beginSection(secType)
		e.str(typeTrain)
		e.endSection(m)
	}
	m := e.beginSection(2)
	e.str("trace-0ddba11")
	e.str("span-5ca1ab1e")
	e.endSection(m)
	frame, err := finishWireFrame(e.b, hdr)
	if err != nil {
		panic(err)
	}
	return frame
}

// TestWireRetiredTraceSectionSkipped: tag 2 is retired, not reused — a
// frame that still carries it decodes cleanly, untraced — and tag 23 is
// request-only: a response still echoing the trace under it decodes to
// exactly the response without it.
func TestWireRetiredTraceSectionSkipped(t *testing.T) {
	var req request
	if _, err := decodeWireRequest(retiredTraceFrame(frameRequest)[4:], &req, nil); err != nil {
		t.Fatalf("tag-2 request: %v", err)
	}
	if req.Type != typeTrain || req.TraceID != 0 || req.SpanID != 0 {
		t.Fatalf("tag-2 request decoded as %+v, want an untraced train request", req)
	}
	_, resp, err := decodeWireResponse(retiredTraceFrame(frameResponse)[4:], nil)
	if err != nil || !reflect.DeepEqual(resp, response{}) {
		t.Fatalf("tag-2 response decoded as %+v (%v), want an empty response", resp, err)
	}

	want := fullResponse()
	frame, err := appendWireResponse(nil, 5, &want)
	if err != nil {
		t.Fatal(err)
	}
	echo := spliceSection(frame[4:], secTraceCtx, func(e *wireEnc) { e.u64(0xcafe01) })
	if _, resp, err = decodeWireResponse(echo, nil); err != nil || !reflect.DeepEqual(resp, want) {
		t.Fatalf("response with a tag-23 echo decoded as %+v (%v), want %+v", resp, err, want)
	}
}

// TestWireRetiredEnvelopeSectionsSkipped: tag 8 (the summary epoch every
// response echoed) and tag 18 (the push capability marker the JSON
// hello negotiated) are retired, not reused — a request or response that
// still carries them decodes to exactly the frame without them.
func TestWireRetiredEnvelopeSectionsSkipped(t *testing.T) {
	epoch := func(e *wireEnc) { e.uvarint(9) }
	marker := func(e *wireEnc) { e.u8(1) }

	in := fullRequest()
	frame, err := appendWireRequest(nil, 6, &in)
	if err != nil {
		t.Fatal(err)
	}
	body := spliceSection(spliceSection(frame[4:], 18, marker), 8, epoch)
	var req request
	if _, err := decodeWireRequest(body, &req, nil); err != nil || !reflect.DeepEqual(req, in) {
		t.Fatalf("request with tags 8 and 18 decoded as %+v (%v), want %+v", req, err, in)
	}

	out := fullResponse()
	if frame, err = appendWireResponse(nil, 6, &out); err != nil {
		t.Fatal(err)
	}
	body = spliceSection(spliceSection(frame[4:], 18, marker), 8, epoch)
	_, resp, err := decodeWireResponse(body, nil)
	if err != nil || !reflect.DeepEqual(resp, out) {
		t.Fatalf("response with tags 8 and 18 decoded as %+v (%v), want %+v", resp, err, out)
	}
}

// spliceSection returns a copy of the v2 body (frame without its
// length prefix) with a section built by fill inserted right after the
// header (magic, kind, id).
func spliceSection(body []byte, tag byte, fill func(e *wireEnc)) []byte {
	const header = 1 + 1 + 8
	e := wireEnc{b: append([]byte{}, body[:header]...)}
	m := e.beginSection(tag)
	fill(&e)
	e.endSection(m)
	return append(e.b, body[header:]...)
}

// TestWireRetiredEvalSectionsSkipped: tags 5 and 11 (the Eval RPC's
// bodies) and span owner 1 are retired, not reused — a frame that still
// carries them decodes to exactly the frame without them.
func TestWireRetiredEvalSectionsSkipped(t *testing.T) {
	in := request{Type: typeTrain, Train: &federation.TrainRequest{Spec: ml.PaperLR(1), Clusters: []int{1}, LocalEpochs: 2}}
	frame, err := appendWireRequest(nil, 6, &in)
	if err != nil {
		t.Fatal(err)
	}
	body := spliceSection(frame[4:], 5, func(e *wireEnc) {
		e.spec(ml.PaperLR(1))
		e.params(ml.Params{Kind: ml.KindLinear, Dims: []int{2}, Values: []float64{1, 2}})
		e.u8(1)
		e.rect(geometry.MustRect([]float64{0, -1}, []float64{4, 9}))
	})
	var req request
	if _, err := decodeWireRequest(body, &req, nil); err != nil {
		t.Fatalf("tag-5 request: %v", err)
	}
	if !reflect.DeepEqual(req, in) {
		t.Fatalf("tag-5 request decoded as %+v, want %+v", req, in)
	}

	out := response{NodeID: "node-A", SummaryUnchanged: true}
	frame, err = appendWireResponse(nil, 6, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Inserted in reverse: the tag-11 body, then its owner-1 spans.
	body = spliceSection(frame[4:], secSpans, func(e *wireEnc) {
		e.u8(1)
		putItems(e, []federation.NodeSpan{{Name: "node.eval", StartUnixNS: 1, DurationNS: 2}}, e.span)
	})
	body = spliceSection(body, 11, func(e *wireEnc) {
		e.f64(0.5)
		e.uvarint(640)
		e.uvarint(3)
	})
	_, resp, err := decodeWireResponse(body, nil)
	if err != nil {
		t.Fatalf("tag-11 response: %v", err)
	}
	if !reflect.DeepEqual(resp, out) {
		t.Fatalf("tag-11 response decoded as %+v, want %+v", resp, out)
	}
}

// TestWireV2SpanSectionSkippedByLength: the secSpans section is
// self-delimiting, so a peer that predates it (or postdates it with
// yet-newer tags) keeps decoding cleanly. Simulated both ways: an
// unknown future tag appended after the span sections must be skipped,
// and a frame whose span section is surgically removed must still
// yield the full typed bodies — exactly what an old decoder sees.
func TestWireV2SpanSectionSkippedByLength(t *testing.T) {
	in := fullResponse()
	frame, err := appendWireResponse(nil, 4, &in)
	if err != nil {
		t.Fatal(err)
	}
	// Future tag after the span sections.
	body := append(append([]byte{}, frame[4:]...), 213, 2, 0, 0, 0, 0x01, 0x02)
	_, out, err := decodeWireResponse(body, nil)
	if err != nil {
		t.Fatalf("future tag after spans broke decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("payload corrupted around unknown tag:\n in: %+v\nout: %+v", in, out)
	}

	// Span-free encode of the same response must round-trip to the same
	// bodies minus spans — the v1-peer view of the world.
	bare := fullResponse()
	bare.Train.Spans = nil
	bareFrame, err := appendWireResponse(nil, 5, &bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(bareFrame) >= len(frame) {
		t.Fatalf("span sections added no bytes: %d vs %d", len(frame), len(bareFrame))
	}
	_, bareOut, err := decodeWireResponse(bareFrame[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if bareOut.Train.Spans != nil {
		t.Fatalf("spans materialized from nothing: %+v", bareOut)
	}
}

// TestWireV2MalformedRejected: truncations and forged counts at every
// prefix length must error out without panicking or over-allocating.
func TestWireV2MalformedRejected(t *testing.T) {
	in := fullRequest()
	frame, err := appendWireRequest(nil, 5, &in)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	// Truncating exactly at a section boundary legitimately yields a
	// shorter frame with trailing optional sections absent — but the
	// mandatory type section must have survived, and there is one such
	// boundary per section after it. Everything else must be rejected.
	sections := 0
	for d := (wireDec{b: body, off: 10}); ; sections++ { // past magic, kind, id
		if _, _, ok := d.section(); !ok {
			break
		}
	}
	boundaries := 0
	for n := 0; n < len(body); n++ {
		var out request
		if _, err := decodeWireRequest(body[:n], &out, nil); err == nil {
			if out.Type != in.Type {
				t.Fatalf("truncation at %d accepted with type %q", n, out.Type)
			}
			boundaries++
		}
	}
	if boundaries > sections-1 {
		t.Fatalf("%d truncation points accepted for %d sections; only whole-section boundaries should decode",
			boundaries, sections)
	}
	// Forged float count far beyond the body must be rejected before
	// any allocation.
	forged := append([]byte{}, body...)
	forged[len(forged)-1] = 0xFF
	var out request
	_, _ = decodeWireRequest(forged, &out, nil) // must not panic
}

// TestWireV2ZeroAllocSteadyState is the pooled-buffer satellite's
// contract: once buffers and destination structs are warm, encoding
// and decoding a model-parameter train frame performs zero heap
// allocations per frame.
func TestWireV2ZeroAllocSteadyState(t *testing.T) {
	req := request{Type: typeTrain, Train: &federation.TrainRequest{
		Spec: ml.Spec{Kind: ml.KindLinear, InputDim: 8, LearningRate: 0.03, Epochs: 100},
		Params: ml.Params{Kind: ml.KindLinear, Dims: []int{9},
			Values: make([]float64, 4096)},
		LocalEpochs: 5,
	}}
	for i := range req.Train.Params.Values {
		req.Train.Params.Values[i] = float64(i) * 1.000001
	}

	var buf []byte
	var dst request
	// Warm the destination's nested allocations.
	b, err := appendWireRequest(buf[:0], 1, &req)
	if err != nil {
		t.Fatal(err)
	}
	buf = b
	if _, err := decodeWireRequest(buf[4:], &dst, nil); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		b, err := appendWireRequest(buf[:0], 2, &req)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	}); allocs != 0 {
		t.Fatalf("v2 encode allocates %.1f/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeWireRequest(buf[4:], &dst, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("v2 decode allocates %.1f/op at steady state, want 0", allocs)
	}
	if !reflect.DeepEqual(dst.Train.Params.Values, req.Train.Params.Values) {
		t.Fatal("steady-state decode corrupted the payload")
	}
}

// TestWireRegionTrainEncodeZeroAlloc: a region daemon answers every
// sharded query with a train response; once the frame buffer is warm,
// encoding one (results, params, node and region spans) allocates
// nothing — no JSON, no boxing of the body.
func TestWireRegionTrainEncodeZeroAlloc(t *testing.T) {
	resp := response{RegionTrain: fullRegionTrainResponse()}
	buf, err := appendWireResponse(nil, 1, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if buf, err = appendWireResponse(buf[:0], 2, &resp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("region train response encode allocates %.1f/op at steady state, want 0", allocs)
	}
}

// TestWireCodecFieldDriftGuard fails when a wire-crossing struct
// gains or loses fields without the binary codec being updated.
// Reflection is test-only; the codec itself stays reflection-free.
func TestWireCodecFieldDriftGuard(t *testing.T) {
	want := []struct {
		typ reflect.Type
		n   int
	}{
		{reflect.TypeOf(ml.Spec{}), 7},
		{reflect.TypeOf(ml.Params{}), 3},
		{reflect.TypeOf(geometry.Rect{}), 2},
		{reflect.TypeOf(cluster.Summary{}), 3},
		{reflect.TypeOf(cluster.NodeSummary{}), 4},
		{reflect.TypeOf(federation.TrainRequest{}), 6},
		{reflect.TypeOf(federation.TrainResponse{}), 6},
		{reflect.TypeOf(federation.NodeSpan{}), 3},
		{reflect.TypeOf(query.Query{}), 2},
		{reflect.TypeOf(selection.NodeRank{}), 8},
		{reflect.TypeOf(selection.Participant{}), 3},
		{reflect.TypeOf(region.PlanRequest{}), 3},
		{reflect.TypeOf(region.PlanResponse{}), 3},
		{reflect.TypeOf(region.TrainRequest{}), 6},
		{reflect.TypeOf(region.RoundResult{}), 8},
		{reflect.TypeOf(region.TrainResponse{}), 4},
		{reflect.TypeOf(request{}), 8},
		{reflect.TypeOf(response{}), 10},
	}
	for _, w := range want {
		if got := w.typ.NumField(); got != w.n {
			t.Errorf("%s now has %d fields (codec written for %d) — update wire.go and this guard",
				w.typ, got, w.n)
		}
	}
}

// ---- envelope behaviour over a live connection ----

// TestWireSkewTraceDeadlineEpoch runs the trace, deadline and epoch
// assertions over a live connection: the request's trace reaches the
// daemon log, an expired envelope deadline is refused server-side, and
// the train body carries the node's summary epoch. The "v2" subtest is
// the one leg left since the JSON codec was retired; the name is kept
// so the test's history stays under one name.
func TestWireSkewTraceDeadlineEpoch(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		srv, client := startServer(t, 11, 2, 0, 50)

		// Trace attribution end to end.
		var lc logCapture
		srv.SetLogger(lc.logf)
		if _, err := client.roundTrip(context.Background(), request{
			Type: typeTrain, TraceID: 0xaa, SpanID: 0xbb,
			Train: &federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 1},
		}); err != nil {
			t.Fatal(err)
		}
		if logs := lc.joined(); !strings.Contains(logs, "trace=00000000000000aa") || !strings.Contains(logs, "span=00000000000000bb") {
			t.Fatalf("daemon log missing trace attribution:\n%s", logs)
		}

		// Expired envelope deadline refused server-side.
		if _, err := client.roundTrip(context.Background(), request{
			Type:           typeTrain,
			DeadlineUnixMS: time.Now().Add(-time.Second).UnixMilli(),
			Train:          &federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 3},
		}); err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("expired deadline err = %v", err)
		}

		// Requantization drift visible on the next train.
		if err := srv.node.Requantize(); err != nil {
			t.Fatal(err)
		}
		tr, err := client.Train(context.Background(), federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr.SummaryEpoch != 2 {
			t.Fatalf("post-requantize epoch %d, want 2", tr.SummaryEpoch)
		}
	})
}

// TestWireV2EquivalentToLocal drives two identically-seeded nodes —
// one in-process, one over a negotiated v2 TCP connection — through
// the same request sequence and demands bit-identical responses: the
// binary codec must be invisible to the learning pipeline.
func TestWireV2EquivalentToLocal(t *testing.T) {
	build := func() federation.Client {
		node, err := federation.NewNode("twin", lineDataset(250, 1.5, 2, 0, 40, 77), 5, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return federation.LocalClient{Node: node}
	}
	local := build()

	node, err := federation.NewNode("twin", lineDataset(250, 1.5, 2, 0, 40, 77), 5, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	remote, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })

	ctx := context.Background()
	sumL, _, err := local.SummaryIfChanged(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	sumR, err := remote.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sumL, sumR) {
		t.Fatalf("summaries diverge:\nlocal:  %+v\nremote: %+v", sumL, sumR)
	}

	var params ml.Params
	for round := 0; round < 3; round++ {
		reqT := federation.TrainRequest{Spec: ml.PaperLR(1), Params: params, LocalEpochs: 5, Clusters: []int{0, 1}}
		trL, err := local.Train(ctx, reqT)
		if err != nil {
			t.Fatal(err)
		}
		trR, err := remote.Train(ctx, reqT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trL.Params, trR.Params) || trL.SamplesUsed != trR.SamplesUsed {
			t.Fatalf("round %d: train diverges:\nlocal:  %+v\nremote: %+v", round, trL, trR)
		}
		params = trL.Params
	}
}

// ---- multiplexing behaviour ----

// TestMuxPipelining proves true pipelining: with the node's engine held
// by a gate, several calls from one client must all be in flight on
// one connection simultaneously.
func TestMuxPipelining(t *testing.T) {
	srv, client := startServer(t, 21, 2, 0, 30)

	const calls = 6
	release := make(chan struct{})
	started := make(chan struct{}, calls)
	hold := func() {
		started <- struct{}{}
		<-release
	}
	srv.gate.Store(&hold)

	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Ping(); err != nil {
				errs <- err
			}
		}()
	}
	// All six dispatches must start concurrently over the single
	// connection while the gate pins them.
	deadline := time.After(5 * time.Second)
	for i := 0; i < calls; i++ {
		select {
		case <-started:
		case <-deadline:
			t.Fatalf("only %d/%d RPCs in flight on one connection", i, calls)
		}
	}
	if got := client.InflightRPCs(); got != calls {
		t.Fatalf("client reports %d in-flight, want %d", got, calls)
	}
	srv.gate.Store(nil)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := client.InflightRPCs(); got != 0 {
		t.Fatalf("in-flight %d after drain", got)
	}
}

// TestMuxCancellationDoesNotPoisonConnection: canceling one pipelined
// call must not disturb its neighbours or the connection — the tagged
// response is simply dropped when it arrives.
func TestMuxCancellationDoesNotPoisonConnection(t *testing.T) {
	_, client := startServer(t, 22, 2, 0, 30)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Train(ctx, federation.TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 400})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled call did not return")
	}
	// The same connection keeps serving without a reconnect.
	before, _ := client.BytesMoved()
	if _, err := client.Summary(context.Background()); err != nil {
		t.Fatalf("connection poisoned by cancellation: %v", err)
	}
	if after, _ := client.BytesMoved(); after <= before {
		t.Fatal("no bytes moved on the surviving connection")
	}
}

// TestMuxConcurrentStress hammers one multiplexed connection with
// mixed Train/Summary traffic plus mid-flight
// cancellations, under -race in CI. Every non-canceled call must
// succeed.
func TestMuxConcurrentStress(t *testing.T) {
	_, client := startServer(t, 23, 2, 0, 30)
	spec := ml.PaperLR(1)

	const workers = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					if _, err := client.Train(context.Background(), federation.TrainRequest{Spec: spec, LocalEpochs: 1}); err != nil {
						errs <- err
					}
				case 1:
					if _, _, err := client.SummaryIfChanged(context.Background(), 1); err != nil {
						errs <- err
					}
				case 2:
					if _, err := client.Summary(context.Background()); err != nil {
						errs <- err
					}
				default:
					// Cancellation mid-flight: a tiny deadline races
					// the RPC; both outcomes are legal, crashes and
					// poisoned connections are not.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i)*time.Millisecond)
					_, err := client.Train(ctx, federation.TrainRequest{Spec: spec, LocalEpochs: 3})
					cancel()
					// The envelope deadline is millisecond-truncated,
					// so the daemon can refuse a hair before the local
					// ctx expires; that surfaces as a stringified
					// remote deadline error. All three are legal.
					if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
						!errors.Is(err, context.Canceled) &&
						!strings.Contains(err.Error(), "deadline exceeded") {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := client.InflightRPCs(); got != 0 {
		t.Fatalf("in-flight %d after stress drain", got)
	}
}

// TestWireMetricsByCodec: the daemon's byte counter and the response
// encode histogram must advance with traffic (the name survives from
// when both carried a codec label).
func TestWireMetricsByCodec(t *testing.T) {
	reg := telemetry.Default()
	node := telemetry.L("node", "node-A")
	in := reg.Counter("qens_bytes_received_total", node...)
	enc := reg.Histogram("qens_wire_encode_us", node...)
	in0, enc0 := in.Value(), enc.Count()

	_, client := startServer(t, 24, 2, 0, 30)
	if _, err := client.Train(context.Background(), federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 1}); err != nil {
		t.Fatal(err)
	}
	// The server tallies a connection's bytes after it has written the
	// response, so the client can hold the answer a moment before the
	// counter moves: wait for it, bounded.
	for deadline := time.Now().Add(5 * time.Second); in.Value() <= in0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("byte counter did not advance: %v -> %v", in0, in.Value())
		}
	}
	if got := enc.Count(); got <= enc0 {
		t.Fatalf("encode histogram did not advance: %d -> %d", enc0, got)
	}
}

// TestWireIDsInternedPerConnection: a connection's id table hands every
// frame naming the same node the one string it made for the first, and
// a peer naming ever new ids cannot grow it past maxConnIDs.
func TestWireIDsInternedPerConnection(t *testing.T) {
	ids := idTable{}
	decode := func(nodeID string) string {
		frame, err := appendWireResponse(nil, 1, &response{NodeID: nodeID})
		if err != nil {
			t.Fatal(err)
		}
		_, resp, err := decodeWireResponse(frame[4:], ids)
		if err != nil {
			t.Fatal(err)
		}
		return resp.NodeID
	}
	first, second := decode("edge-7"), decode("edge-7")
	if first != "edge-7" || unsafe.StringData(first) != unsafe.StringData(second) {
		t.Fatalf("ids %q and %q are not one interned string", first, second)
	}
	for i := 0; i < maxConnIDs+10; i++ {
		if got, want := decode(fmt.Sprint("peer-", i)), fmt.Sprint("peer-", i); got != want {
			t.Fatalf("id %q decoded as %q", want, got)
		}
	}
	if len(ids) != maxConnIDs {
		t.Fatalf("id table holds %d entries, want the cap %d", len(ids), maxConnIDs)
	}
}
