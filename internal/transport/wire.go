// Wire protocol v2: the hand-rolled binary codec every request,
// response and push frame uses, from a connection's first frame on. It
// sits behind the 4-byte length prefix (and size cap) of frame.go:
//
//	body := magic(u8=0xC2) kind(u8) reqID(u64 LE) section*
//	section := tag(u8) len(u32 LE) payload
//
// Sections unknown to a decoder are skipped by length, so fields can
// be added without a version bump. Model parameters, summary
// rectangles, region rankings and predictions — the dominant payloads —
// are raw little-endian []float64 (bit-exact round-trip via
// math.Float64bits, no decimal text, no reflection); so are the
// root↔region plan and train bodies every sharded query ships twice.
// Only region.info and region.stats, once per topology rebuild and
// once per /v1/stats document, carry JSON inside their section. The
// reqID makes frames self-describing for the
// multiplexed client: responses may return in any order and are
// matched to callers through it. All encode paths borrow pooled
// buffers.
package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/region"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// wireMagic is the first body byte of every v2 frame — a cheap guard
// against JSON (bodies start with '{' = 0x7B) or garbage: a peer that
// does not speak v2 fails the decode on its first frame.
const wireMagic = 0xC2

// Frame kinds. framePush is server-initiated: it carries no pending
// request id from the client's space — push ids live in their own
// monotonically increasing server-minted space, so a push can never be
// mistaken for (or collide with) an RPC response.
const (
	frameRequest  = 0
	frameResponse = 1
	framePush     = 2
)

// Section tags. Request-side and response-side tags share one
// namespace so a decoder can reject misplaced sections cheaply.
const (
	secType      byte = 1  // str rpc type
	secDeadline  byte = 3  // varint deadline_unix_ms
	secTrainReq  byte = 4  // spec, params, ints clusters, uvarint epochs
	secError     byte = 6  // str code, str message
	secNodeID    byte = 7  // str node id (ping response)
	secSummary   byte = 9  // node summary
	secTrainResp byte = 10 // params, uvarint used, uvarint total, varint ns, uvarint epoch
	secSpans     byte = 12 // u8 owner, span list: uvarint count, {str name, varint start_unix_ns, varint dur_ns}*

	// Tags 5 and 11 (the node Eval RPC's request and response bodies)
	// are retired like tags 2 and 13: the §II pre-test scores
	// in-process nodes only, decoders skip them by length, and they
	// must not be reused. So is tag 8, the summary epoch every response
	// used to echo: the train and summary bodies carry their own.

	// Region-tier introspection bodies: u8 body kind (info or stats)
	// followed by a JSON payload. They travel once per topology rebuild
	// or stats read, so JSON buys their nested health reports schema
	// evolution for free. Tag 13 (JSON region request bodies) is retired
	// and must not be reused: decoders skip it by length, so a peer
	// still sending a JSON plan/train body gets the missing-body error,
	// never a misparse.
	secRegionResp byte = 14 // u8 body kind, JSON body

	// Summary-delta refresh (registry delta fetch): a summary request
	// may advertise the epoch it already holds; a server whose summary
	// still carries that epoch answers with an "unchanged" marker
	// instead of the full summary body.
	secKnownEpoch       byte = 15 // uvarint known summary epoch (request)
	secSummaryUnchanged byte = 16 // u8 1 marker (response)

	// Summary-delta push (server→client, inside a framePush frame): the
	// node's fresh advertisement. Peers that never subscribe simply
	// never receive push frames and keep pulling. Tag 18, the push
	// capability marker the retired JSON hello negotiated, is retired:
	// decoders skip it by length, and it must not be reused.
	secPushSummary byte = 17 // node summary (push)

	// Root↔region plan (Eq. 2–4 ranking) and train (§IV-B round) bodies.
	// A slice the in-process value may hold as nil is preceded by a
	// presence byte (0 nil, 1 present), so a remote answer is
	// reflect.DeepEqual to the in-process one.
	secRegionPlanReq   byte = 19 // str query id, rect, f64 epsilon, u8 query-driven
	secRegionPlanResp  byte = 20 // str region, uvarint epoch, ?{uvarint count, rank*}
	secRegionTrainReq  byte = 21 // str query id, spec, params, ?{uvarint count, participant*}, varint epochs
	secRegionTrainResp byte = 22 // str region, uvarint epoch, ?{uvarint count, result*}, ?span list

	// Trace context: binary telemetry IDs, present only when nonzero.
	// Tag 2 (the same context as two strings) is retired like tag 13:
	// decoders skip it by length, so it must not be reused. Tag 23 is
	// request-only: the response-side trace echo is retired, and a
	// response decoder skips it by length.
	secTraceCtx byte = 23 // u64 trace, u64 span (request)
)

// Body kinds inside secRegionResp. Kinds 0 and 1 (JSON plan and train
// bodies) are retired like tag 13: decoders ignore them.
const (
	regionBodyInfo  byte = 2
	regionBodyStats byte = 3
)

// Owner byte inside a secSpans section: which typed body the span
// list belongs to. The encoder always emits secSpans after the owning
// body's section, so the decoder can attach in one pass. Owner 1 (the
// retired Eval body) is never reused; the decoder drops its spans.
const spanOwnerTrain byte = 0

// ErrMalformedFrame reports a v2 body that violates the wire grammar.
var ErrMalformedFrame = errors.New("transport: malformed v2 frame")

// internTable maps the handful of strings that cross the wire on
// every RPC to shared constants, so the steady-state decode path
// performs zero string allocations. Lookups with a []byte key compile
// to an allocation-free map access.
var internTable = map[string]string{
	typePing:        typePing,
	typeSummary:     typeSummary,
	typeTrain:       typeTrain,
	typeSubscribe:   typeSubscribe,
	typeRegionInfo:  typeRegionInfo,
	typeRegionPlan:  typeRegionPlan,
	typeRegionTrain: typeRegionTrain,
	typeRegionStats: typeRegionStats,
	ml.KindLinear:   ml.KindLinear,
	ml.KindNN:       ml.KindNN,
	CodeUnknownType: CodeUnknownType,
	CodeBadRequest:  CodeBadRequest,
	// Node phase-span names every traced train response carries (the
	// region leader's "region.train" span shares typeRegionTrain).
	"node.queue": "node.queue",
	"node.fit":   "node.fit",
}

func internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := internTable[string(b)]; ok {
		return s
	}
	return string(b)
}

// ---- encoder ----

// wireEnc appends the v2 grammar onto a byte slice. The slice is
// caller-owned (append semantics) so hot paths can reuse one buffer
// frame after frame.
type wireEnc struct{ b []byte }

func (e *wireEnc) u8(v byte)        { e.b = append(e.b, v) }
func (e *wireEnc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *wireEnc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *wireEnc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *wireEnc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *wireEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// floats is the payload that motivates v2: raw little-endian IEEE-754
// bits, 8 bytes per value, bit-exact and memcpy-fast.
func (e *wireEnc) floats(v []float64) {
	e.uvarint(uint64(len(v)))
	for _, f := range v {
		e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
	}
}

func (e *wireEnc) ints(v []int) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.b = binary.AppendVarint(e.b, int64(x))
	}
}

// beginSection writes the tag and reserves a fixed 4-byte length slot
// that endSection patches once the payload is known.
func (e *wireEnc) beginSection(tag byte) int {
	e.u8(tag)
	e.b = append(e.b, 0, 0, 0, 0)
	return len(e.b)
}

func (e *wireEnc) endSection(mark int) {
	binary.LittleEndian.PutUint32(e.b[mark-4:mark], uint32(len(e.b)-mark))
}

func (e *wireEnc) rect(r geometry.Rect) {
	e.floats(r.Min)
	e.floats(r.Max)
}

func (e *wireEnc) params(p ml.Params) {
	e.str(p.Kind)
	e.ints(p.Dims)
	e.floats(p.Values)
}

func (e *wireEnc) spec(s ml.Spec) {
	e.str(s.Kind)
	e.varint(int64(s.InputDim))
	e.ints(s.Hidden)
	e.f64(s.LearningRate)
	e.varint(int64(s.Epochs))
	e.f64(s.ValidationSplit)
	e.uvarint(s.Seed)
}

func (e *wireEnc) summary(s *cluster.NodeSummary) {
	e.str(s.NodeID)
	e.uvarint(uint64(s.TotalSamples))
	e.uvarint(s.Epoch)
	e.uvarint(uint64(len(s.Clusters)))
	for i := range s.Clusters {
		c := &s.Clusters[i]
		e.rect(c.Bounds)
		e.floats(c.Centroid)
		e.uvarint(uint64(c.Size))
	}
}

func (e *wireEnc) int(v int) { e.varint(int64(v)) }

func (e *wireEnc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// putItems writes a count and then every element of s through put.
func putItems[T any](e *wireEnc, s []T, put func(T)) {
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		put(v)
	}
}

// putList writes a presence byte, so that a nil slice and an empty one
// stay apart on the wire, and then a non-nil s as putItems does.
func putList[T any](e *wireEnc, s []T, put func(T)) {
	e.boolean(s != nil)
	if s != nil {
		putItems(e, s, put)
	}
}

// span is one element of a span list: of a secSpans section (after its
// owner byte) and of the region round's node and region span lists.
func (e *wireEnc) span(s federation.NodeSpan) {
	e.str(s.Name)
	e.varint(s.StartUnixNS)
	e.varint(s.DurationNS)
}

func (e *wireEnc) rank(n selection.NodeRank) {
	e.str(n.NodeID)
	putList(e, n.Overlaps, e.f64)
	putList(e, n.Supporting, e.int)
	e.f64(n.Potential)
	e.f64(n.Rank)
	e.int(n.SupportingSamples)
	e.int(n.TotalSamples)
	putList(e, n.Sizes, e.int)
}

func (e *wireEnc) participant(p selection.Participant) {
	e.str(p.NodeID)
	e.f64(p.Rank)
	putList(e, p.Clusters, e.int)
}

func (e *wireEnc) roundResult(x region.RoundResult) {
	e.str(x.NodeID)
	e.params(x.Params)
	e.int(x.SamplesUsed)
	e.int(x.TotalSamples)
	e.varint(int64(x.TrainTime))
	e.varint(x.ElapsedNS)
	e.str(x.Err)
	putList(e, x.Spans, e.span)
}

func (e *wireEnc) regionPlanReq(r *region.PlanRequest) {
	e.str(r.Query.ID)
	e.rect(r.Query.Bounds)
	e.f64(r.Epsilon)
	e.boolean(r.QueryDriven)
}

func (e *wireEnc) regionPlanResp(r *region.PlanResponse) {
	e.str(r.RegionID)
	e.uvarint(r.Epoch)
	putList(e, r.Ranks, e.rank)
}

// regionTrainReq leaves TraceID/SpanID to the envelope, as secTrainReq
// does; the decoder mirrors them back into the body.
func (e *wireEnc) regionTrainReq(r *region.TrainRequest) {
	e.spec(r.Spec)
	e.params(r.Params)
	putList(e, r.Participants, e.participant)
	e.int(r.LocalEpochs)
}

func (e *wireEnc) regionTrainResp(r *region.TrainResponse) {
	e.str(r.RegionID)
	e.uvarint(r.Epoch)
	putList(e, r.Results, e.roundResult)
	putList(e, r.Spans, e.span)
}

// jsonSection emits one secRegionResp section: the body kind byte
// followed by the JSON-marshaled body.
func (e *wireEnc) jsonSection(kind byte, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("transport: encode region body: %w", err)
	}
	m := e.beginSection(secRegionResp)
	e.u8(kind)
	e.b = append(e.b, b...)
	e.endSection(m)
	return nil
}

// appendWireRequest appends one complete v2 request frame (4-byte BE
// length prefix included) for req tagged with id onto dst.
func appendWireRequest(dst []byte, id uint64, req *request) ([]byte, error) {
	e, hdr := beginWireFrame(dst, frameRequest, id)

	m := e.beginSection(secType)
	e.str(req.Type)
	e.endSection(m)
	if req.TraceID != 0 || req.SpanID != 0 {
		m = e.beginSection(secTraceCtx)
		e.u64(uint64(req.TraceID))
		e.u64(uint64(req.SpanID))
		e.endSection(m)
	}
	if req.DeadlineUnixMS != 0 {
		m = e.beginSection(secDeadline)
		e.varint(req.DeadlineUnixMS)
		e.endSection(m)
	}
	if req.Train != nil {
		m = e.beginSection(secTrainReq)
		e.spec(req.Train.Spec)
		e.params(req.Train.Params)
		e.ints(req.Train.Clusters)
		e.varint(int64(req.Train.LocalEpochs))
		e.endSection(m)
	}
	if req.KnownSummaryEpoch != 0 {
		m = e.beginSection(secKnownEpoch)
		e.uvarint(req.KnownSummaryEpoch)
		e.endSection(m)
	}
	if req.RegionPlan != nil {
		m = e.beginSection(secRegionPlanReq)
		e.regionPlanReq(req.RegionPlan)
		e.endSection(m)
	}
	if req.RegionTrain != nil {
		m = e.beginSection(secRegionTrainReq)
		e.regionTrainReq(req.RegionTrain)
		e.endSection(m)
	}
	return finishWireFrame(e.b, hdr)
}

// appendWireResponse appends one complete v2 response frame for resp
// tagged with id onto dst.
func appendWireResponse(dst []byte, id uint64, resp *response) ([]byte, error) {
	e, hdr := beginWireFrame(dst, frameResponse, id)

	if resp.Error != "" {
		m := e.beginSection(secError)
		e.str(resp.Code)
		e.str(resp.Error)
		e.endSection(m)
	}
	if resp.NodeID != "" {
		m := e.beginSection(secNodeID)
		e.str(resp.NodeID)
		e.endSection(m)
	}
	if resp.Summary != nil {
		m := e.beginSection(secSummary)
		e.summary(resp.Summary)
		e.endSection(m)
	}
	if resp.SummaryUnchanged {
		m := e.beginSection(secSummaryUnchanged)
		e.u8(1)
		e.endSection(m)
	}
	if resp.Train != nil {
		m := e.beginSection(secTrainResp)
		e.params(resp.Train.Params)
		e.uvarint(uint64(resp.Train.SamplesUsed))
		e.uvarint(uint64(resp.Train.TotalSamples))
		e.varint(int64(resp.Train.TrainTime))
		e.uvarint(resp.Train.SummaryEpoch)
		e.endSection(m)
	}
	// Piggybacked node-side phase spans ride in their own section so a
	// decoder that stops at secTrainResp skips them by length.
	// They are emitted after the owning body section — attachment during
	// the decoder's single pass relies on that order.
	if resp.Train != nil && len(resp.Train.Spans) > 0 {
		e.spanSection(spanOwnerTrain, resp.Train.Spans)
	}
	if resp.RegionPlan != nil {
		m := e.beginSection(secRegionPlanResp)
		e.regionPlanResp(resp.RegionPlan)
		e.endSection(m)
	}
	if resp.RegionTrain != nil {
		m := e.beginSection(secRegionTrainResp)
		e.regionTrainResp(resp.RegionTrain)
		e.endSection(m)
	}
	if resp.RegionInfo != nil {
		if err := e.jsonSection(regionBodyInfo, resp.RegionInfo); err != nil {
			return e.b[:hdr], err
		}
	}
	if resp.RegionStats != nil {
		if err := e.jsonSection(regionBodyStats, resp.RegionStats); err != nil {
			return e.b[:hdr], err
		}
	}
	return finishWireFrame(e.b, hdr)
}

// appendWirePush appends one complete v2 push frame: the server's
// unsolicited summary-delta advertisement tagged with a server-minted
// push id.
func appendWirePush(dst []byte, pushID uint64, s *cluster.NodeSummary) ([]byte, error) {
	e, hdr := beginWireFrame(dst, framePush, pushID)
	m := e.beginSection(secPushSummary)
	e.summary(s)
	e.endSection(m)
	return finishWireFrame(e.b, hdr)
}

// decodeWirePush parses a v2 push frame body. A push without a summary
// section (truncation or forgery) is malformed: unlike requests and
// responses, the summary is the frame's entire reason to exist.
func decodeWirePush(body []byte) (pushID uint64, s cluster.NodeSummary, err error) {
	d := wireDec{b: body}
	pushID = decodeWireHeader(&d, framePush)
	saw := false
	for {
		tag, p, ok := d.section()
		if !ok {
			break
		}
		if tag == secPushSummary {
			p.summary(&s)
			saw = true
		}
		if p.err != nil {
			return pushID, cluster.NodeSummary{}, p.err
		}
	}
	if d.err != nil {
		return pushID, cluster.NodeSummary{}, d.err
	}
	if !saw {
		return pushID, cluster.NodeSummary{}, fmt.Errorf("%w: push frame without summary section", ErrMalformedFrame)
	}
	return pushID, s, nil
}

// spanSection emits one secSpans section carrying a node-span list for
// the body identified by owner.
func (e *wireEnc) spanSection(owner byte, spans []federation.NodeSpan) {
	m := e.beginSection(secSpans)
	e.u8(owner)
	putItems(e, spans, e.span)
	e.endSection(m)
}

// beginWireFrame starts a v2 frame on dst: a 4-byte length slot that
// finishWireFrame patches at hdr, then magic, kind and id.
func beginWireFrame(dst []byte, kind byte, id uint64) (e wireEnc, hdr int) {
	e = wireEnc{b: append(dst, 0, 0, 0, 0)}
	e.u8(wireMagic)
	e.u8(kind)
	e.u64(id)
	return e, len(dst)
}

// finishWireFrame patches the 4-byte big-endian length prefix at hdr
// and enforces the frame cap.
func finishWireFrame(b []byte, hdr int) ([]byte, error) {
	body := len(b) - hdr - 4
	if body > MaxFrameSize {
		return b[:hdr], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[hdr:hdr+4], uint32(body))
	return b, nil
}

// ---- decoder ----

// wireDec walks a v2 body with a sticky error: after the first
// malformed read every subsequent accessor is a no-op returning zero,
// so decode call-sites stay linear and a final err check suffices.
// All reads are bounds-checked; counts are validated against the
// bytes remaining before any allocation, so a forged header cannot
// force an over-allocation past the frame cap.
type wireDec struct {
	b   []byte
	off int
	err error
	ids idTable // nil: ids are not interned
}

// idTable interns the node and region ids one connection decodes: a
// peer names the same few nodes in every frame, so each id string is
// made once per connection instead of once per frame. Only the
// connection's reader uses it, so it takes no lock, and it stops
// growing at maxConnIDs entries (a peer cannot grow it without bound).
type idTable map[string]string

const maxConnIDs = 4096

func (d *wireDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrMalformedFrame, what, d.off)
	}
}

func (d *wireDec) remaining() int { return len(d.b) - d.off }

func (d *wireDec) u8() byte {
	if d.err != nil || d.remaining() < 1 {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *wireDec) u64() uint64 {
	if d.err != nil || d.remaining() < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *wireDec) u32() uint32 {
	if d.err != nil || d.remaining() < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *wireDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *wireDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *wireDec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a uvarint element count and rejects it unless at least
// elemSize*count bytes remain — the allocation guard.
func (d *wireDec) count(elemSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(d.remaining()/elemSize) {
		d.fail("count exceeds frame")
		return 0
	}
	return int(n)
}

// rest consumes and returns every remaining byte of the (sub)decoder —
// the JSON payload of a region.info or region.stats section.
func (d *wireDec) rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.b[d.off:]
	d.off = len(d.b)
	return b
}

// raw consumes a length-prefixed byte run (nil after an error).
func (d *wireDec) raw() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *wireDec) str() string { return internString(d.raw()) }

// id is str for a node or region id, interned in d.ids.
func (d *wireDec) id() string {
	b := d.raw()
	if s, ok := d.ids[string(b)]; ok {
		return s
	}
	s := internString(b)
	if d.ids != nil && len(d.ids) < maxConnIDs {
		d.ids[s] = s
	}
	return s
}

// floats decodes a raw []float64 run, reusing dst's backing array
// when its capacity suffices (the steady-state zero-alloc path).
func (d *wireDec) floats(dst []float64) []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off+8*i:]))
	}
	d.off += 8 * n
	return dst
}

func (d *wireDec) ints(dst []int) []int {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int, n)
	}
	for i := range dst {
		dst[i] = int(d.varint())
	}
	if d.err != nil {
		return nil
	}
	return dst
}

func (d *wireDec) rect(dst *geometry.Rect) {
	dst.Min = d.floats(dst.Min)
	dst.Max = d.floats(dst.Max)
}

// params decodes a Params whose Dims is the shape's shared slice (see
// ml.SharedDims): read into a stack buffer, never into dst's old Dims.
func (d *wireDec) params(dst *ml.Params) {
	dst.Kind = d.str()
	var buf [8]int
	dst.Dims = ml.SharedDims(d.ints(buf[:0]))
	dst.Values = d.floats(dst.Values)
}

func (d *wireDec) spec(dst *ml.Spec) {
	dst.Kind = d.str()
	dst.InputDim = int(d.varint())
	dst.Hidden = d.ints(dst.Hidden)
	dst.LearningRate = d.f64()
	dst.Epochs = int(d.varint())
	dst.ValidationSplit = d.f64()
	dst.Seed = d.uvarint()
}

func (d *wireDec) summary(dst *cluster.NodeSummary) {
	dst.NodeID = d.id()
	dst.TotalSamples = int(d.uvarint())
	dst.Epoch = d.uvarint()
	n := d.count(1)
	if d.err != nil {
		return
	}
	if cap(dst.Clusters) >= n {
		dst.Clusters = dst.Clusters[:n]
	} else {
		dst.Clusters = make([]cluster.Summary, n)
	}
	for i := range dst.Clusters {
		c := &dst.Clusters[i]
		d.rect(&c.Bounds)
		c.Centroid = d.floats(c.Centroid)
		c.Size = int(d.uvarint())
	}
}

// boolean reads a marker or presence byte; anything but 0 or 1 is
// malformed.
func (d *wireDec) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("boolean")
	return false
}

func (d *wireDec) int() int { return int(d.varint()) }

// getItems reads what putItems writes. Each element takes at least
// minSize bytes on the wire, which bounds the count before it
// allocates; a zero count still yields a non-nil slice.
func getItems[T any](d *wireDec, minSize int, get func() T) []T {
	n := d.count(minSize)
	if d.err != nil {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = get()
	}
	return s
}

// getList reads what putList writes: nil behind a 0 presence byte.
func getList[T any](d *wireDec, minSize int, get func() T) []T {
	if !d.boolean() {
		return nil
	}
	return getItems(d, minSize, get)
}

// Minimum encoded element sizes, the allocation guards of getItems: a
// span is an empty name and two one-byte varints; a rank an empty id,
// three presence bytes, two f64s and two varints; a participant an
// empty id, an f64 and a presence byte; a round result an empty id, an
// empty params triple, four varints, an empty error and a presence
// byte.
const (
	minSpan        = 3
	minRank        = 22
	minParticipant = 10
	minRoundResult = 10
)

func (d *wireDec) span() (s federation.NodeSpan) {
	s.Name = d.str()
	s.StartUnixNS = d.varint()
	s.DurationNS = d.varint()
	return s
}

func (d *wireDec) rank() (n selection.NodeRank) {
	n.NodeID = d.id()
	n.Overlaps = getList(d, 8, d.f64)
	n.Supporting = getList(d, 1, d.int)
	n.Potential = d.f64()
	n.Rank = d.f64()
	n.SupportingSamples = d.int()
	n.TotalSamples = d.int()
	n.Sizes = getList(d, 1, d.int)
	return n
}

func (d *wireDec) participant() (p selection.Participant) {
	p.NodeID = d.id()
	p.Rank = d.f64()
	p.Clusters = getList(d, 1, d.int)
	return p
}

func (d *wireDec) roundResult() (x region.RoundResult) {
	x.NodeID = d.id()
	d.params(&x.Params)
	x.SamplesUsed = d.int()
	x.TotalSamples = d.int()
	x.TrainTime = time.Duration(d.varint())
	x.ElapsedNS = d.varint()
	x.Err = d.str()
	x.Spans = getList(d, minSpan, d.span)
	return x
}

func (d *wireDec) regionPlanReq(r *region.PlanRequest) {
	r.Query.ID = d.str()
	d.rect(&r.Query.Bounds)
	r.Epsilon = d.f64()
	r.QueryDriven = d.boolean()
}

func (d *wireDec) regionPlanResp(r *region.PlanResponse) {
	r.RegionID = d.id()
	r.Epoch = d.uvarint()
	r.Ranks = getList(d, minRank, d.rank)
}

func (d *wireDec) regionTrainReq(r *region.TrainRequest) {
	d.spec(&r.Spec)
	d.params(&r.Params)
	r.Participants = getList(d, minParticipant, d.participant)
	r.LocalEpochs = d.int()
}

func (d *wireDec) regionTrainResp(r *region.TrainResponse) {
	r.RegionID = d.id()
	r.Epoch = d.uvarint()
	r.Results = getList(d, minRoundResult, d.roundResult)
	r.Spans = getList(d, minSpan, d.span)
}

// section reads the next section header, returning its tag and
// payload sub-decoder. ok is false at end-of-body or on error.
func (d *wireDec) section() (tag byte, payload wireDec, ok bool) {
	if d.err != nil || d.remaining() == 0 {
		return 0, wireDec{}, false
	}
	tag = d.u8()
	n := int(d.u32())
	if d.err != nil || n > d.remaining() {
		d.fail("section length exceeds frame")
		return 0, wireDec{}, false
	}
	payload = wireDec{b: d.b[d.off : d.off+n], ids: d.ids}
	d.off += n
	return tag, payload, true
}

// decodeWireHeader validates the magic/kind preamble and returns the
// request id.
func decodeWireHeader(d *wireDec, wantKind byte) (id uint64) {
	if d.u8() != wireMagic {
		d.fail("bad magic")
		return 0
	}
	if d.u8() != wantKind {
		d.fail("bad frame kind")
		return 0
	}
	return d.u64()
}

// decodeWireRequest parses a v2 request body into req, reusing req's
// nested allocations where capacities allow; ids (nil: none) interns
// the ids it names.
func decodeWireRequest(body []byte, req *request, ids idTable) (id uint64, err error) {
	d := wireDec{b: body, ids: ids}
	id = decodeWireHeader(&d, frameRequest)
	*req = request{Train: req.Train}
	sawTrain := false
	for {
		tag, p, ok := d.section()
		if !ok {
			break
		}
		switch tag {
		case secType:
			req.Type = p.str()
		case secTraceCtx:
			req.TraceID = telemetry.ID(p.u64())
			req.SpanID = telemetry.ID(p.u64())
		case secDeadline:
			req.DeadlineUnixMS = p.varint()
		case secKnownEpoch:
			req.KnownSummaryEpoch = p.uvarint()
		case secTrainReq:
			if req.Train == nil {
				req.Train = &federation.TrainRequest{}
			}
			t := req.Train
			*t = federation.TrainRequest{Spec: ml.Spec{Hidden: t.Spec.Hidden},
				Params: ml.Params{Values: t.Params.Values}, Clusters: t.Clusters}
			p.spec(&t.Spec)
			p.params(&t.Params)
			t.Clusters = p.ints(t.Clusters)
			t.LocalEpochs = int(p.varint())
			sawTrain = true
		case secRegionPlanReq:
			req.RegionPlan = &region.PlanRequest{}
			p.regionPlanReq(req.RegionPlan)
		case secRegionTrainReq:
			req.RegionTrain = &region.TrainRequest{}
			p.regionTrainReq(req.RegionTrain)
		}
		if p.err != nil {
			return id, p.err
		}
	}
	if !sawTrain {
		req.Train = nil
	}
	if d.err != nil {
		return id, d.err
	}
	if req.Type == "" {
		// Every request carries a type section; a typeless frame is a
		// truncation or a forgery, not a protocol message.
		return id, fmt.Errorf("%w: request without type section", ErrMalformedFrame)
	}
	// Trace ids ride the envelope only; mirror them into the typed
	// bodies exactly like the JSON codec's struct tags would.
	if req.Train != nil {
		req.Train.TraceID, req.Train.SpanID = req.TraceID, req.SpanID
	}
	if req.RegionTrain != nil {
		req.RegionTrain.TraceID, req.RegionTrain.SpanID = req.TraceID, req.SpanID
	}
	return id, nil
}

// decodeWireResponse parses a v2 response body into resp. resp is
// reset first; nested slices are freshly allocated because responses
// escape to callers (the mux reader never reuses them). ids (nil: none)
// interns the node and region ids it names.
func decodeWireResponse(body []byte, ids idTable) (id uint64, resp response, err error) {
	d := wireDec{b: body, ids: ids}
	id = decodeWireHeader(&d, frameResponse)
	for {
		tag, p, ok := d.section()
		if !ok {
			break
		}
		switch tag {
		case secError:
			resp.Code = p.str()
			resp.Error = p.str()
		case secNodeID:
			resp.NodeID = p.id()
		case secSummary:
			resp.Summary = &cluster.NodeSummary{}
			p.summary(resp.Summary)
		case secSummaryUnchanged:
			resp.SummaryUnchanged = p.u8() == 1
		case secTrainResp:
			t := &federation.TrainResponse{}
			p.params(&t.Params)
			t.SamplesUsed = int(p.uvarint())
			t.TotalSamples = int(p.uvarint())
			t.TrainTime = time.Duration(p.varint())
			t.SummaryEpoch = p.uvarint()
			resp.Train = t
		case secSpans:
			owner := p.u8()
			spans := getItems(&p, minSpan, p.span)
			// Attach to the owning body; a spans section arriving before
			// its body (a peer bug) is dropped rather than erroring.
			if owner == spanOwnerTrain && resp.Train != nil {
				resp.Train.Spans = spans
			}
		case secRegionPlanResp:
			resp.RegionPlan = &region.PlanResponse{}
			p.regionPlanResp(resp.RegionPlan)
		case secRegionTrainResp:
			resp.RegionTrain = &region.TrainResponse{}
			p.regionTrainResp(resp.RegionTrain)
		case secRegionResp:
			kind := p.u8()
			body := p.rest()
			var err error
			switch kind {
			case regionBodyInfo:
				resp.RegionInfo = &region.Info{}
				err = json.Unmarshal(body, resp.RegionInfo)
			case regionBodyStats:
				resp.RegionStats = &region.Stats{}
				err = json.Unmarshal(body, resp.RegionStats)
			}
			if err != nil {
				return id, response{}, fmt.Errorf("%w: region body %d: %v", ErrMalformedFrame, kind, err)
			}
		}
		if p.err != nil {
			return id, response{}, p.err
		}
	}
	if d.err != nil {
		return id, response{}, d.err
	}
	return id, resp, nil
}

// ---- pooled frame I/O ----

// framePool recycles encode buffers for v2 frames and read buffers
// for every frame. Buffers above poolMaxRetain are dropped on release
// so one giant model frame does not pin memory forever.
const poolMaxRetain = 1 << 20

var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > poolMaxRetain {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// writeWireFrame writes the frame encode appends to a pooled buffer
// with a single Write call.
func writeWireFrame(w io.Writer, encode func(dst []byte) ([]byte, error)) (int, error) {
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	b, err := encode((*buf)[:0])
	if err != nil {
		return 0, err
	}
	*buf = b
	return w.Write(b)
}
