package telemetry

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatKV renders a structured key=value log line:
//
//	component=transport event=rpc type=train trace=ab12 dur_ms=3.2
//
// Values containing spaces or quotes are %q-quoted. Inputs are
// alternating key, value pairs; a trailing odd value is rendered under
// the key "msg".
func FormatKV(kvs ...any) string {
	var b []byte
	for i := 0; i < len(kvs); i += 2 {
		if i+1 >= len(kvs) {
			b = AppendKV(b, "msg", fmt.Sprint(kvs[i]))
			break
		}
		b = AppendKV(b, fmt.Sprint(kvs[i]), fmt.Sprint(kvs[i+1]))
	}
	return string(b)
}

// AppendKV appends one key=value pair of a FormatKV line to b, after a
// separating space unless b is empty, and without allocating — the form
// for lines written per request.
func AppendKV(b []byte, key, value string) []byte {
	if len(b) > 0 {
		b = append(b, ' ')
	}
	b = append(b, key...)
	b = append(b, '=')
	if value == "" || strings.ContainsAny(value, " \t\n\"=") {
		return strconv.AppendQuote(b, value)
	}
	return append(b, value...)
}

// AppendIDKV is AppendKV for an ID value: the hex form appended in
// place, with no string built (the zero ID renders as AppendKV's "").
func AppendIDKV(b []byte, key string, id ID) []byte {
	if id == 0 {
		return AppendKV(b, key, "")
	}
	if len(b) > 0 {
		b = append(b, ' ')
	}
	b = append(b, key...)
	b = append(b, '=')
	return id.AppendHex(b)
}
