package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallOnce answers every query with an empty JSON object and stalls
// exactly one request, the stallAt-th, for stall.
func stallOnce(stallAt int64, stall time.Duration) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}"))
	})
}

const (
	stubRate  = 200.0 // one request every 5 ms on the one connection
	stubStall = 200 * time.Millisecond
)

// An open-loop run must charge a stall to the requests scheduled while
// it lasted: each reports at least the stall that remained at its
// scheduled time. The generator's own lateness is reported apart.
func TestOpenLoopCountsCoordinatedOmission(t *testing.T) {
	srv := httptest.NewServer(stallOnce(20, stubStall))
	defer srv.Close()
	conns := newConns(srv.URL, 1)
	defer closeConns(conns)
	p := phase{conns: conns, bodies: [][]byte{[]byte("{}")}, dur: time.Second}
	rs := p.openLoop(context.Background(), stubRate)
	if len(rs) != int(stubRate) {
		t.Fatalf("sent %d requests, want %d", len(rs), int(stubRate))
	}

	// Request 19 (0-based) is the stalled one, due at 95 ms.
	stalled := rs[19]
	if stalled.latencyMS < ms(stubStall) {
		t.Fatalf("stalled request took %.1f ms, want ≥ %v", stalled.latencyMS, stubStall)
	}
	stallEnd := stalled.offsetMS + stalled.latencyMS
	behind := 0
	for _, r := range rs[20:] {
		remaining := stallEnd - r.offsetMS
		if remaining <= 0 {
			break
		}
		behind++
		if r.latencyMS < remaining-1 {
			t.Errorf("request %d due at %.1f ms reports %.1f ms, the stall had %.1f ms left", r.req, r.offsetMS, r.latencyMS, remaining)
		}
	}
	if want := int(ms(stubStall)/5) - 2; behind < want {
		t.Errorf("%d requests were scheduled during the stall, want ≥ %d", behind, want)
	}

	var late []float64
	for _, r := range rs {
		if r.lateMS < 0 {
			t.Errorf("request %d: negative lateness %.3f ms", r.req, r.lateMS)
		}
		late = append(late, r.lateMS)
	}
	// Lateness is measured against max(schedule, previous answer), so
	// the stall itself is not the generator's fault.
	if l := quantile(late, 0.99); l > 20 {
		t.Errorf("late_p99 = %.3f ms: the stall leaked into the generator's lateness", l)
	}
}

// A closed loop sends the next request only after the answer: the same
// stall delays one request and hides the queue it would have built.
func TestClosedLoopHidesTheStall(t *testing.T) {
	srv := httptest.NewServer(stallOnce(20, stubStall))
	defer srv.Close()
	conns := newConns(srv.URL, 1)
	defer closeConns(conns)
	p := phase{conns: conns, bodies: [][]byte{[]byte("{}")}, dur: 600 * time.Millisecond}
	rs := p.closedLoop(context.Background())
	slow := 0
	for _, r := range rs {
		if r.latencyMS >= ms(stubStall)/2 {
			slow++
		}
	}
	if len(rs) < 30 || slow != 1 {
		t.Errorf("%d of %d closed-loop requests saw the stall, want exactly 1 of ≥ 30", slow, len(rs))
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := quantile(vs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 5 {
		t.Error("quantile reordered its argument")
	}
	if got := quartile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1); got != 2.75 {
		t.Errorf("quartile 1 of 1..10 = %v, want 2.75 (Python statistics.quantiles)", got)
	}
}
