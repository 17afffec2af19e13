//go:build !race

// Under -race the instrumented runtime allocates on its own and
// sync.Pool drops Puts, so this file builds only without it; `make
// rerun` runs it.

package gateway

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"qens/internal/telemetry"
)

// maxQueryAllocs bounds what one POST /v1/query allocates end to end
// through the handler against an in-process leader with no cache —
// request and recorder, body decode, admission plan, queue, round, the
// nodes' training and the response — at the measured 53.0 plus 10 %,
// so a give-back at the request edge fails here before a profile.
const maxQueryAllocs = 58

// TestQueryAllocs fails when the request path gives back allocations.
func TestQueryAllocs(t *testing.T) {
	fleet := testFleet(t)
	s, err := NewServer(ServerConfig{Leader: fleet.Leader, Registry: &telemetry.Registry{}, CoalesceIoU: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"bounds":{"min":[5,-50],"max":[35,150]},"selector":"query-driven","epsilon":0.6,"top_l":2}`)
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // fills the pools
	if got := testing.AllocsPerRun(200, serve); got > maxQueryAllocs {
		t.Fatalf("POST /v1/query allocates %.1f objects, want ≤ %d", got, maxQueryAllocs)
	} else {
		t.Logf("POST /v1/query allocates %.1f objects (bound %d)", got, maxQueryAllocs)
	}
}
