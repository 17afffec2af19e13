// Package transport runs the federation protocol over real TCP
// sockets: a participant daemon (Server) wrapping a federation.Node,
// and a Client implementing federation.Client so the leader can drive
// remote participants exactly like in-process ones.
//
// Every frame is a 4-byte big-endian length prefix with a hard size
// cap, then a body. A connection is hello, then v2: the first frame
// each way is a JSON ping (writeFrame/readFrame below) that names the
// peer and refuses one too old to speak v2; every request, response and
// push after it is a binary v2 body (see wire.go) with raw
// little-endian float payloads and per-frame request ids, multiplexed
// by the client. Only summaries, model parameters and scalar losses
// cross the wire — never raw samples — preserving the paper's privacy
// model and its O(1)-per-node communication story.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize caps a single message (16 MiB fits any realistic model
// parameter vector while bounding a misbehaving peer).
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge reports an over-sized frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// jsonBufPool recycles the scratch buffers writeFrame encodes into.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeFrame encodes v as JSON and writes one length-prefixed frame.
// The header and body go out in a single Write through a pooled
// buffer (one syscall, no per-frame buffer allocation).
func writeFrame(w io.Writer, v any) error {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= poolMaxRetain {
			buf.Reset()
			jsonBufPool.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	b := buf.Bytes()
	if len(b)-4 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// readFrameBody reads one length-prefixed frame into a pooled buffer.
// The caller must release the returned buffer with putFrameBuf once
// done with the body bytes. A clean EOF on the header is surfaced as
// io.EOF so connection loops can distinguish peer departure.
func readFrameBody(r io.Reader) (*[]byte, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(header[:])
	if size > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	buf := getFrameBuf()
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	} else {
		*buf = (*buf)[:size]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		putFrameBuf(buf)
		return nil, fmt.Errorf("transport: read body: %w", err)
	}
	return buf, nil
}

// readFrame reads one length-prefixed frame and decodes its JSON body
// into v (the hello). The body transits a pooled buffer.
func readFrame(r io.Reader, v any) error {
	buf, err := readFrameBody(r)
	if err != nil {
		return err
	}
	defer putFrameBuf(buf)
	if err := json.Unmarshal(*buf, v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

// Message types. The region.* family is served only by regional-leader
// daemons (ServeRegion); a participant daemon answers them with
// CodeUnknownType, which DialRegion surfaces as a topology mismatch.
const (
	typePing        = "ping"
	typeSummary     = "summary"
	typeTrain       = "train"
	typeRegionInfo  = "region.info"
	typeRegionPlan  = "region.plan"
	typeRegionTrain = "region.train"
	typeRegionStats = "region.stats"
	// typeSubscribe registers the connection for server-push summary
	// deltas (see server.go). A server that cannot push — a region
	// server, a pre-push daemon — answers CodeUnknownType and the client
	// stays on pull.
	typeSubscribe = "summary.subscribe"
)

// Structured error codes carried in the response envelope so clients
// can react to protocol-level failures without parsing error strings.
const (
	// CodeUnknownType reports a request whose Type the server does
	// not implement (version skew or a misbehaving peer).
	CodeUnknownType = "unknown_type"
	// CodeBadRequest reports a request missing its typed body.
	CodeBadRequest = "bad_request"
	// CodeUnsupportedProto refuses a hello that is not a ping
	// advertising wire_proto >= 2; the connection is closed after it.
	CodeUnsupportedProto = "unsupported_proto"
)

// ErrUnknownType is returned by the client when the server rejects a
// request type (wrapped with the offending type's name).
var ErrUnknownType = errors.New("transport: unknown request type")

// ErrPeerTooOld fails a dial whose peer answered the hello without
// wire_proto >= 2: it only speaks the retired JSON codec.
var ErrPeerTooOld = errors.New("transport: peer speaks only the retired v1 JSON wire protocol; upgrade it")
