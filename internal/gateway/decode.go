package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readQuery decodes a /v1/query or /v1/plan body (≤ 1 MiB, read into a
// pooled buffer nothing decoded aliases): fastDecode, else decodeJSON.
func readQuery(w http.ResponseWriter, r *http.Request, req *queryRequest) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil || fastDecode(buf.Bytes(), req) {
		return err
	}
	*req = queryRequest{}
	return decodeJSON(buf.Bytes(), req)
}

// decodeJSON, the reference and the only source of 400 texts, is
// encoding/json refusing unknown fields and anything but whitespace after
// the object. It decodes into a copy, so req stays off the heap.
func decodeJSON(body []byte, req *queryRequest) error {
	dec, v := json.NewDecoder(bytes.NewReader(body)), new(queryRequest)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if *req = *v; err != nil || len(bytes.TrimLeft(body[dec.InputOffset():], " \t\n\r")) == 0 {
		return err
	}
	return errors.New("invalid data after the request object")
}

// fastDecode decodes the common body without encoding/json: exact
// lower-case keys, printable ASCII strings without escapes, JSON numbers
// parsed as encoding/json parses them, Min and Max carved from one slice,
// the latest of a repeated key. It reports false, with req partly
// written, for anything else (escapes, case-folded or unknown keys,
// null, malformed input, trailing data), which decodeJSON decides.
func fastDecode(b []byte, req *queryRequest) bool {
	s := scanner{b: b, nums: make([]float64, 0, 8)}
	keys := [...]string{"id", "selector", "epsilon", "top_l", "psi", "aggregation", "timeout_ms", "deadline", "async", "include_params"}
	dsts := [...]any{&req.ID, &req.Selector, &req.Epsilon, &req.TopL, &req.Psi, &req.Aggregation, &req.TimeoutMS, &req.Deadline, &req.Async, &req.IncludeParams}
	ok := s.object(func(key []byte) bool {
		if string(key) == "bounds" {
			return s.object(func(key []byte) bool {
				return string(key) == "min" && s.value(&req.Bounds.Min) || string(key) == "max" && s.value(&req.Bounds.Max)
			})
		}
		for i, k := range keys {
			if string(key) == k {
				return s.value(dsts[i])
			}
		}
		return false
	})
	s.ws()
	return ok && s.i == len(b)
}

// scanner walks a body for fastDecode; false means input it does not take.
type scanner struct {
	b    []byte
	i    int
	nums []float64 // backs every decoded []float64
}

// jsonNumber is RFC 8259's number grammar; strconv also takes "+1", "01", ".5".
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

func (s *scanner) ws() {
	for s.i < len(s.b) && strings.IndexByte(" \t\n\r", s.b[s.i]) >= 0 {
		s.i++
	}
}

// eat consumes c if it is the next byte after whitespace.
func (s *scanner) eat(c byte) bool {
	s.ws()
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// list scans open, items separated by commas, close.
func (s *scanner) list(open, close byte, item func() bool) bool {
	ok := s.eat(open)
	for first := true; ok && !s.eat(close); first = false {
		ok = (first || s.eat(',')) && item()
	}
	return ok
}

// object scans {"key": value, ...}; member scans the value of key.
func (s *scanner) object(member func(key []byte) bool) bool {
	return s.list('{', '}', func() bool {
		key, ok := s.str()
		return ok && s.eat(':') && member(key)
	})
}

func (s *scanner) str() ([]byte, bool) {
	ok := s.eat('"')
	start := s.i
	for ok && s.i < len(s.b) && s.b[s.i] >= 0x20 && s.b[s.i] < 0x80 && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	s.i++
	return s.b[start : s.i-1], ok && s.i <= len(s.b) && s.b[s.i-1] == '"'
}

// value scans a value of dst's type into it.
func (s *scanner) value(dst any) bool {
	switch p := dst.(type) {
	case *string:
		b, ok := s.str()
		if *p = "query-driven"; string(b) != *p { // the served default, not copied
			*p = string(b)
		}
		return ok
	case *[]float64:
		start := len(s.nums)
		ok := s.list('[', ']', func() bool { s.nums = append(s.nums, 0); return s.value(&s.nums[len(s.nums)-1]) })
		*p = s.nums[start:len(s.nums):len(s.nums)]
		return ok
	}
	s.ws()
	start := s.i
	for s.i < len(s.b) && strings.IndexByte(" \t\n\r,]}", s.b[s.i]) < 0 {
		s.i++
	}
	tok := s.b[start:s.i]
	var err error
	switch p := dst.(type) {
	case *bool:
		*p = string(tok) == "true"
		return *p || string(tok) == "false"
	case *float64:
		*p, err = strconv.ParseFloat(string(tok), 64)
	case *int64:
		*p, err = strconv.ParseInt(string(tok), 10, 64)
	case *int:
		*p, err = strconv.Atoi(string(tok))
	}
	return err == nil && jsonNumber.Match(tok)
}
