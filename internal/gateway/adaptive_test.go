package gateway

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"qens/internal/selection"
)

// TestGatewayBanditAutoSelector drives selector "auto" end to end: the
// bandit picks arms, finished queries feed rewards back, EXPLAIN uses
// the side-effect-free greedy arm, and /v1/stats shows the scoreboard.
func TestGatewayBanditAutoSelector(t *testing.T) {
	fleet := testFleet(t)
	bandit, err := selection.NewConfigBandit(selection.DefaultConfigArms(0.6), selection.BanditConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newGatewayServer(t, ServerConfig{Leader: fleet.Leader, Bandit: bandit})

	const n = 6
	for i := 0; i < n; i++ {
		code, doc, _ := postQuery(t, ts.URL, fmt.Sprintf(
			`{"id":"auto-%d","bounds":{"min":[10,-50],"max":[40,150]},"selector":"auto"}`, i))
		if code != http.StatusOK {
			t.Fatalf("auto query %d: status %d (%v)", i, code, doc)
		}
	}

	// Rewards land in a detached tracker goroutine; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var total int64
		for _, s := range bandit.Stats() {
			total += s.Plays
		}
		if total == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bandit observed %d plays, want %d", total, n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// EXPLAIN with "auto" resolves the greedy arm without playing it.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"bounds":{"min":[10,-50],"max":[40,150]},"selector":"auto"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan auto: status %d", resp.StatusCode)
	}
	var total int64
	for _, s := range bandit.Stats() {
		total += s.Plays
	}
	if total != n {
		t.Fatalf("EXPLAIN advanced the bandit: %d plays, want %d", total, n)
	}

	var stats struct {
		Bandit []selection.ArmStats `json:"bandit"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.Bandit) != len(selection.DefaultConfigArms(0.6)) {
		t.Fatalf("stats bandit block has %d arms", len(stats.Bandit))
	}
}

// TestGatewayAutoSelectorWithoutBandit: "auto" without the bandit
// configured is a client error, not a crash.
func TestGatewayAutoSelectorWithoutBandit(t *testing.T) {
	fleet := testFleet(t)
	_, ts := newGatewayServer(t, ServerConfig{Leader: fleet.Leader})
	code, doc, _ := postQuery(t, ts.URL,
		`{"bounds":{"min":[10,-50],"max":[40,150]},"selector":"auto"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d (%v), want 400", code, doc)
	}
}
