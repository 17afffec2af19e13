package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/telemetry"
)

// FuzzReadFrame hardens the hello's JSON framing: arbitrary bytes must
// either decode into an envelope or be rejected — never panic, never
// over-allocate past the frame cap.
func FuzzReadFrame(f *testing.F) {
	frame := func(v any) []byte {
		var b bytes.Buffer
		_ = writeFrame(&b, v)
		return b.Bytes()
	}
	f.Add(frame(request{Type: typePing}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	// The handshake's own frames: the client hello, a server answer, and
	// the refusal an old peer gets.
	f.Add(frame(request{Type: typePing, WireProto: WireProtoV2, SummaryPush: true}))
	f.Add(frame(response{NodeID: "node-A", WireProto: WireProtoV2, SummaryPush: true, SummaryEpoch: 1}))
	f.Add(frame(response{Code: CodeUnsupportedProto, Error: "upgrade this peer"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Both hello envelopes: must not panic.
		var req request
		_ = readFrame(bytes.NewReader(data), &req)
		var resp response
		_ = readFrame(bytes.NewReader(data), &resp)
	})
}

// FuzzWireV2 hardens the binary codec. Each input is interpreted two
// ways:
//
//  1. As a raw v2 frame body: decode must never panic and never
//     allocate past the section sizes actually present (the count
//     guards in wireDec enforce this; a panic or OOM fails the fuzz).
//  2. As fuzz-chosen field values for a request: encode → decode must
//     reproduce the request exactly, bit-for-bit on floats.
func FuzzWireV2(f *testing.F) {
	// Seed with a real encoded frame, its truncations, and junk.
	full := fullRequest()
	frame, err := appendWireRequest(nil, 7, &full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:], "train", int64(123), 0.5, uint64(3))
	f.Add(frame[4:len(frame)/2], "evaluate", int64(-1), -0.0, uint64(0))
	// Region plan/train sections (fullRequest ends with both, the full
	// response with both after the node bodies) and cuts inside them.
	resp := fullResponse()
	rframe, err := appendWireResponse(nil, 8, &resp)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{frame[4:], rframe[4:]} {
		for _, cut := range []int{1, 9, 40, 120} {
			f.Add(body[:len(body)-cut], typeRegionTrain, int64(cut), 2.5, uint64(cut))
		}
	}
	f.Add(rframe[4:], typeRegionPlan, int64(7), 1.0, uint64(5))
	// The trace context (tag 23) alone, both ways, and a frame from a
	// peer still sending the retired tag-2 string section.
	traced := request{Type: typeTrain, TraceID: 0x0ddba11, SpanID: 0x5ca1ab1e}
	tframe, err := appendWireRequest(nil, 9, &traced)
	if err != nil {
		f.Fatal(err)
	}
	echo := response{TraceID: 0x0ddba11}
	eframe, err := appendWireResponse(nil, 9, &echo)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tframe[4:], typeTrain, int64(0), 0.25, uint64(0x0ddba11))
	f.Add(eframe[4:], typeTrain, int64(0), 0.25, uint64(0x0ddba11))
	f.Add(retiredTraceFrame(frameRequest)[4:], typeTrain, int64(1), 0.5, uint64(2))
	f.Add([]byte{wireMagic, frameRequest}, "ping", int64(0), 1e308, uint64(1))
	f.Add([]byte{}, "", int64(9), 0.0, uint64(2))
	f.Fuzz(func(t *testing.T, raw []byte, typ string, dl int64, v float64, n uint64) {
		// Property 1: arbitrary bytes never panic the decoders, and a
		// forged count can never make them allocate beyond the body.
		var junk request
		_, _ = decodeWireRequest(raw, &junk)
		_, _, _ = decodeWireResponse(raw)
		_, _, _ = decodeWirePush(raw)

		// Property 2: encode→decode round-trips fuzz-chosen values.
		// NaN is excluded: the codec moves raw float bits, but NaN != NaN
		// would fail the DeepEqual below despite a bit-exact trip.
		if v != v {
			v = 0
		}
		vals := make([]float64, n%64)
		for i := range vals {
			vals[i] = v * float64(i+1)
		}
		in := request{
			Type:           typ,
			TraceID:        telemetry.ID(n),
			DeadlineUnixMS: dl,
		}
		if len(vals) > 0 {
			in.Train = &federation.TrainRequest{
				TraceID: in.TraceID,
				Params:  ml.Params{Kind: ml.KindLinear, Dims: []int{len(vals)}, Values: vals},
			}
		}
		enc, err := appendWireRequest(nil, n, &in)
		if err != nil {
			t.Fatalf("encode rejected a legal request: %v", err)
		}
		if in.Type == "" {
			// Typeless requests are not legal protocol messages; the
			// decoder must refuse what the encoder never sends alone.
			return
		}
		// The length prefix must match the body exactly.
		if got := binary.BigEndian.Uint32(enc[:4]); int(got) != len(enc)-4 {
			t.Fatalf("length prefix %d for %d-byte body", got, len(enc)-4)
		}
		var out request
		id, err := decodeWireRequest(enc[4:], &out)
		if err != nil {
			t.Fatalf("decode(encode(x)) failed: %v", err)
		}
		if id != n {
			t.Fatalf("request id %d round-tripped as %d", n, id)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
}

// FuzzWirePush hardens the push-frame codec the server-push summary
// path rides on. Each input is interpreted three ways:
//
//  1. As a raw push-frame body: decodeWirePush must never panic, a
//     forged cluster count can never allocate past the bytes present,
//     and a push body must be rejected by the request and response
//     decoders (kind fencing keeps the client mux honest).
//  2. As fuzz-chosen advertisement fields: appendWirePush →
//     decodeWirePush must reproduce the summary exactly, every strict
//     prefix of the frame must be rejected as truncated, and a
//     one-byte corruption must at worst error — never panic.
//  3. As a request carrying the summary-push marker plus an unknown
//     trailing section: the decoder must take the marker and skip the
//     unknown tag by length — the same forward-compatibility contract
//     that lets pre-push peers ignore the marker itself.
func FuzzWirePush(f *testing.F) {
	seed := cluster.NodeSummary{
		NodeID: "node-A",
		Clusters: []cluster.Summary{{
			Bounds:   geometry.MustRect([]float64{0, 0}, []float64{1, 1}),
			Centroid: []float64{0.5, 0.5},
			Size:     10,
		}},
		TotalSamples: 10,
		Epoch:        3,
	}
	frame, err := appendWirePush(nil, 9, &seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:], "node-A", uint64(3), uint64(2), 1.5)
	f.Add(frame[4:len(frame)-3], "", uint64(0), uint64(0), -0.0)
	f.Add([]byte{wireMagic, framePush}, "n", uint64(1), uint64(7), 1e308)
	f.Add([]byte{}, "x", uint64(2), uint64(9), 0.25)
	f.Fuzz(func(t *testing.T, raw []byte, nodeID string, epoch uint64, n uint64, v float64) {
		// Property 1: arbitrary bytes never panic, and a push body never
		// passes for a request or response.
		_, _, _ = decodeWirePush(raw)
		if len(raw) >= 2 && raw[0] == wireMagic && raw[1] == framePush {
			var junk request
			if _, err := decodeWireRequest(raw, &junk); err == nil {
				t.Fatal("push body accepted as a request")
			}
			if _, _, err := decodeWireResponse(raw); err == nil {
				t.Fatal("push body accepted as a response")
			}
		}

		// Property 2: encode→decode round-trips a fuzz-chosen summary.
		// NaN and ±Inf are excluded from the geometry (NewRect rejects
		// them and NaN != NaN breaks DeepEqual); raw-bit float handling
		// is already property 1's job.
		if v != v || math.IsInf(v, 0) {
			v = 1.25
		}
		span := math.Mod(math.Abs(v), 1000)
		in := cluster.NodeSummary{
			NodeID:       nodeID,
			Epoch:        epoch,
			TotalSamples: int(n % 1024),
		}
		for i := 0; i < int(n%6); i++ {
			lo := 3*float64(i) - span
			in.Clusters = append(in.Clusters, cluster.Summary{
				Bounds:   geometry.MustRect([]float64{lo, lo}, []float64{lo + 1 + span, lo + 2}),
				Centroid: []float64{v * float64(i+1), -v},
				Size:     i + 1,
			})
		}
		enc, err := appendWirePush(nil, n, &in)
		if err != nil {
			t.Fatalf("encode rejected a legal push: %v", err)
		}
		if got := binary.BigEndian.Uint32(enc[:4]); int(got) != len(enc)-4 {
			t.Fatalf("length prefix %d for %d-byte body", got, len(enc)-4)
		}
		id, out, err := decodeWirePush(enc[4:])
		if err != nil {
			t.Fatalf("decode(encode(x)) failed: %v", err)
		}
		if id != n {
			t.Fatalf("push id %d round-tripped as %d", n, id)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
		// Every strict prefix is a truncation: the frame carries exactly
		// one section, so a cut anywhere must reject, not half-read.
		body := enc[4:]
		for cut := 0; cut < len(body); cut++ {
			if _, _, err := decodeWirePush(body[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d bytes accepted", cut, len(body))
			}
		}
		// One-byte corruption — a forged count, flipped tag, bent
		// section length — must at worst error; over-allocation is
		// stopped by the count guards, a panic fails the fuzz itself.
		mut := append([]byte(nil), body...)
		mut[int(epoch%uint64(len(mut)))] ^= byte(n | 1)
		_, _, _ = decodeWirePush(mut)

		// Property 3: the summary-push marker survives an unknown
		// trailing section, which the decoder must skip by length.
		req := request{Type: typeSummary, SummaryPush: true}
		reqEnc, err := appendWireRequest(nil, 1, &req)
		if err != nil {
			t.Fatal(err)
		}
		spliced := append([]byte(nil), reqEnc[4:]...)
		junkLen := int(n % 32)
		spliced = append(spliced, 0xEE, byte(junkLen), 0, 0, 0)
		for i := 0; i < junkLen; i++ {
			spliced = append(spliced, byte(i)^byte(epoch))
		}
		var got request
		if _, err := decodeWireRequest(spliced, &got); err != nil {
			t.Fatalf("unknown trailing section not skipped: %v", err)
		}
		if !got.SummaryPush || got.Type != typeSummary {
			t.Fatalf("summary-push marker lost around unknown section: %+v", got)
		}
	})
}

// FuzzDispatch drives the server's request dispatcher with decoded
// fuzz inputs; every outcome must be a well-formed response.
func FuzzDispatch(f *testing.F) {
	f.Add(typePing)
	f.Add(typeSummary)
	f.Add(typeTrain)
	f.Add(typeEvaluate)
	f.Add("bogus")
	node, err := newFuzzNode()
	if err != nil {
		f.Fatal(err)
	}
	srv := &Server{node: node}
	srv.SetLogger(silent)
	f.Fuzz(func(t *testing.T, reqType string) {
		resp := srv.dispatch(request{Type: reqType})
		if resp.Error == "" && resp.NodeID == "" {
			t.Fatalf("dispatch(%q) returned neither result nor error", reqType)
		}
	})
}
