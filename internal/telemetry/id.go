package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"
)

// ID identifies a trace or a span: 64 bits, with 0 meaning "none". IDs
// stay binary on every hot path — the span ring, the wire, the log
// line — and become text only when someone reads them: 16 lowercase
// hex characters, the zero ID rendering as the empty string.
type ID uint64

// String returns the 16-hex-character form ("" for the zero ID).
func (id ID) String() string {
	if id == 0 {
		return ""
	}
	var b [16]byte
	return string(id.AppendHex(b[:0]))
}

// AppendHex appends the 16-hex-character form to b (nothing for the
// zero ID) without allocating beyond b's growth.
func (id ID) AppendHex(b []byte) []byte {
	if id == 0 {
		return b
	}
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(id>>uint(shift))&0xf])
	}
	return b
}

// MarshalText implements encoding.TextMarshaler (JSON renders an ID as
// its hex string).
func (id ID) MarshalText() ([]byte, error) { return id.AppendHex(nil), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(text []byte) error {
	v, err := ParseID(string(text))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// errBadID reports text that is not an ID's rendering.
var errBadID = errors.New("telemetry: an id is 16 hex characters")

// ParseID parses exactly the form String renders: "" is the zero ID,
// anything else must be 16 lowercase hex characters.
func ParseID(s string) (ID, error) {
	if s == "" {
		return 0, nil
	}
	if len(s) != 16 {
		return 0, errBadID
	}
	var v ID
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			v = v<<4 | ID(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | ID(c-'a'+10)
		default:
			return 0, errBadID
		}
	}
	return v, nil
}

// idState is the counter newID advances; init seeds it from
// crypto/rand so IDs differ across processes.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; a clock seed
		// still keeps processes apart in practice.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	idState.Store(binary.LittleEndian.Uint64(b[:]))
}

// newID returns a fresh nonzero ID: splitmix64 over an atomic counter.
// The counter steps by an odd constant and the mix is a bijection, so
// IDs never repeat within a process (short of 2^64 draws).
func newID() ID {
	for {
		z := idState.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if z ^= z >> 31; z != 0 {
			return ID(z)
		}
	}
}
