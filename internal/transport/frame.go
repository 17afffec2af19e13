// Package transport runs the federation protocol over real TCP
// sockets: a participant daemon (Server) wrapping a federation.Node,
// and a Client implementing federation.Client so the leader can drive
// remote participants exactly like in-process ones.
//
// Every frame is a 4-byte big-endian length prefix with a hard size
// cap, then a binary v2 body (see wire.go) with raw little-endian float
// payloads and a per-frame request id, multiplexed by the client. A
// connection speaks v2 from its first frame: the client opens with an
// ordinary ping, whose reply names the peer; a peer that sends anything
// else fails the v2 decode and is dropped. Only summaries, model
// parameters and scalar losses cross the wire — never raw samples —
// preserving the paper's privacy model and its O(1)-per-node
// communication story.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize caps a single message (16 MiB fits any realistic model
// parameter vector while bounding a misbehaving peer).
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge reports an over-sized frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

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
	// deltas (see server.go). A region server, which has no summary to
	// push, answers CodeUnknownType and the client stays on pull.
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
)

// ErrUnknownType is returned by the client when the server rejects a
// request type (wrapped with the offending type's name).
var ErrUnknownType = errors.New("transport: unknown request type")
