package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// servedBodies are bodies of the shapes clients send: the benchmark's
// (json.Marshal of bounds, selector, epsilon and top_l, floats in
// shortest form), the README's, and one with every field.
var servedBodies = []string{
	`{"bounds":{"min":[12.345678901234567,-48.99999999999999],"max":[31.5,1.5e-07]},"selector":"query-driven","epsilon":0.6,"top_l":3}`,
	`{"bounds":{"min":[5,-50],"max":[35,150]},"selector":"query-driven","epsilon":0.6,"top_l":2,"include_params":true}`,
	`{"bounds":{"min":[5,-50],"max":[35,150]},"selector":"query-driven","epsilon":0.6,"top_l":2}`,
	` { "id" : "q-1", "bounds" : { "max" : [ 1E+2 , 2 ] , "min" : [ -0 , 0.5e-3 ] } , "selector" : "all-nodes" ,
	  "psi" : 0.25 , "aggregation" : "averaging" , "timeout_ms" : 1500 , "deadline" : "2030-01-02T03:04:05Z" ,
	  "async" : false , "include_params" : true } ` + "\n",
	`{}`,
	`{"bounds":{"min":[],"max":[1]},"bounds":{"min":[2]}}`,
}

// TestFastDecodeTakesServedBodies: the bodies clients send never reach
// encoding/json, and decode as it would.
func TestFastDecodeTakesServedBodies(t *testing.T) {
	for _, body := range servedBodies {
		var fast, ref queryRequest
		if !fastDecode([]byte(body), &fast) {
			t.Fatalf("fast path declined %s", body)
		}
		if err := decodeJSON([]byte(body), &ref); err != nil {
			t.Fatalf("encoding/json refused %s: %v", body, err)
		}
		if a, b := fmt.Sprintf("%#v", fast), fmt.Sprintf("%#v", ref); a != b {
			t.Fatalf("%s decoded to\n%s, encoding/json to\n%s", body, a, b)
		}
	}
}

// FuzzQueryRequest: for any body the fast path either declines, or it
// decodes what encoding/json does — float bits, nil against empty
// slices and all (%#v prints floats in their shortest round-tripping
// form and a negative zero as -0) — where encoding/json accepts the body.
func FuzzQueryRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	for _, body := range servedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast, ref queryRequest
		if !fastDecode(body, &fast) {
			return
		}
		if err := decodeJSON(body, &ref); err != nil {
			t.Fatalf("fast path took %q, encoding/json refuses it: %v", body, err)
		}
		if a, b := fmt.Sprintf("%#v", fast), fmt.Sprintf("%#v", ref); a != b {
			t.Fatalf("%q decoded to\n%s, encoding/json to\n%s", body, a, b)
		}
	})
}

// TestPlanContext: the admission context reports the query's deadline
// without a timer, arms one on the first Done, and behaves as a
// cancelled WithDeadline once released.
func TestPlanContext(t *testing.T) {
	at := time.Now().Add(50 * time.Millisecond)
	c := newPlanContext(context.Background(), at)
	if d, ok := c.Deadline(); !ok || !d.Equal(at) {
		t.Fatalf("Deadline %v %v, want %v", d, ok, at)
	}
	if err := c.Err(); err != nil || c.derived != nil {
		t.Fatalf("fresh context: Err %v, derived %v", err, c.derived)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed at the deadline")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline: %v", err)
	}

	// Err sees the deadline pass without a Done, and then Done is closed.
	c = newPlanContext(context.Background(), time.Now().Add(-time.Millisecond))
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err past the deadline: %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Err reported the deadline with Done open")
	}

	// The parent's end, and release, end it too.
	parent, cancel := context.WithCancel(context.Background())
	c = newPlanContext(parent, time.Now().Add(time.Hour))
	cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after the parent ended: %v", err)
	}
	c = newPlanContext(context.Background(), time.Now().Add(time.Hour))
	done := c.Done()
	c.release()
	<-done
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after release: %v", err)
	}
	c = newPlanContext(context.Background(), time.Now().Add(time.Hour))
	c.release()
	<-c.Done()
}
