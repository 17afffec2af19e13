package fleet

import (
	"math"
	"testing"
	"time"

	"qens/internal/telemetry"
)

func newTestTracker() *Tracker {
	return NewTracker(&telemetry.Registry{})
}

func healthByID(report []NodeHealth) map[string]NodeHealth {
	m := make(map[string]NodeHealth, len(report))
	for _, h := range report {
		m[h.NodeID] = h
	}
	return m
}

func TestTrackerEWMAMath(t *testing.T) {
	tr := newTestTracker()
	tr.ObserveRound("n0", 100*time.Millisecond, "")
	tr.ObserveRound("n0", 200*time.Millisecond, "")

	h := healthByID(tr.Report(nil))["n0"]
	// First round seeds the EWMA; the second folds in with alpha=0.2:
	// 100 + 0.2*(200-100) = 120.
	if math.Abs(h.LatencyEWMAMS-120) > 1e-9 {
		t.Fatalf("latency EWMA = %v, want 120", h.LatencyEWMAMS)
	}
	if h.ErrorEWMA != 0 || h.Rounds != 2 || h.Failures != 0 {
		t.Fatalf("health = %+v", h)
	}
	if h.LastRoundAgeS < 0 || h.LastRoundAgeS > 5 {
		t.Fatalf("last round age = %v", h.LastRoundAgeS)
	}
}

func TestTrackerFailureHandling(t *testing.T) {
	tr := newTestTracker()
	tr.ObserveRound("n0", 100*time.Millisecond, "")
	// A fast failure must not improve the latency EWMA.
	tr.ObserveRound("n0", time.Millisecond, "connection refused")

	h := healthByID(tr.Report(nil))["n0"]
	if math.Abs(h.LatencyEWMAMS-100) > 1e-9 {
		t.Fatalf("failed round moved the latency EWMA to %v", h.LatencyEWMAMS)
	}
	// Error EWMA: seeded 0, then 0 + 0.2*(1-0) = 0.2.
	if math.Abs(h.ErrorEWMA-0.2) > 1e-9 {
		t.Fatalf("error EWMA = %v, want 0.2", h.ErrorEWMA)
	}
	if h.Failures != 1 || h.LastError != "connection refused" {
		t.Fatalf("health = %+v", h)
	}
	// A later success clears LastError but the EWMA decays gradually.
	tr.ObserveRound("n0", 100*time.Millisecond, "")
	h = healthByID(tr.Report(nil))["n0"]
	if h.LastError != "" {
		t.Fatalf("LastError = %q after success", h.LastError)
	}
	if math.Abs(h.ErrorEWMA-0.16) > 1e-9 {
		t.Fatalf("decayed error EWMA = %v, want 0.16", h.ErrorEWMA)
	}
}

// TestTrackerScoreOrdering: a slow node scores below the fleet median,
// a failing node scores below a healthy one, and a node at or below
// median latency with no failures scores 1.
func TestTrackerScoreOrdering(t *testing.T) {
	tr := newTestTracker()
	for i := 0; i < 5; i++ {
		tr.ObserveRound("fast", 50*time.Millisecond, "")
		tr.ObserveRound("median", 100*time.Millisecond, "")
		tr.ObserveRound("slow", 400*time.Millisecond, "")
	}
	byID := healthByID(tr.Report(nil))
	if byID["fast"].Score != 1 {
		t.Fatalf("fast score = %v, want 1 (at/below median)", byID["fast"].Score)
	}
	if byID["median"].Score != 1 {
		t.Fatalf("median score = %v, want 1", byID["median"].Score)
	}
	// slow: speed = 100/400 = 0.25.
	if math.Abs(byID["slow"].Score-0.25) > 1e-9 {
		t.Fatalf("slow score = %v, want 0.25", byID["slow"].Score)
	}

	// Make the median node fail every round: availability collapses.
	for i := 0; i < 40; i++ {
		tr.ObserveRound("median", 100*time.Millisecond, "boom")
	}
	byID = healthByID(tr.Report(nil))
	if byID["median"].Score > 0.01 {
		t.Fatalf("always-failing node scores %v", byID["median"].Score)
	}
	if byID["fast"].Score != 1 {
		t.Fatalf("fast node dragged down to %v by peer failures", byID["fast"].Score)
	}
}

// TestTrackerReportStaleness: the registry stale flag multiplies the
// score by staleFactor at report time only.
func TestTrackerReportStaleness(t *testing.T) {
	tr := newTestTracker()
	tr.ObserveRound("n0", 100*time.Millisecond, "")
	meta := map[string]Meta{
		"n0": {SummaryEpoch: 7, Stale: true},
	}
	h := healthByID(tr.Report(meta))["n0"]
	if math.Abs(h.Score-staleFactor) > 1e-9 {
		t.Fatalf("stale score = %v, want %v", h.Score, staleFactor)
	}
	if h.SummaryEpoch != 7 || !h.Stale {
		t.Fatalf("registry view not mirrored: %+v", h)
	}
	// Fresh report: back to 1.
	h = healthByID(tr.Report(map[string]Meta{"n0": {SummaryEpoch: 7}}))["n0"]
	if h.Score != 1 {
		t.Fatalf("fresh score = %v, want 1", h.Score)
	}
}

// TestTrackerReportUnion: nodes known only to the tracker and only to
// meta both appear, sorted by ID.
func TestTrackerReportUnion(t *testing.T) {
	tr := newTestTracker()
	tr.ObserveRound("b-observed", 10*time.Millisecond, "")
	wire := &WireStatus{NodeID: "a-roster", Addr: "127.0.0.1:7001", BytesOut: 42}
	report := tr.Report(map[string]Meta{
		"a-roster": {SummaryEpoch: 1, Wire: wire},
	})
	if len(report) != 2 {
		t.Fatalf("report has %d nodes, want 2", len(report))
	}
	if report[0].NodeID != "a-roster" || report[1].NodeID != "b-observed" {
		t.Fatalf("report order = %s, %s", report[0].NodeID, report[1].NodeID)
	}
	// Never-observed roster node: neutral score, wire attached.
	if report[0].Score != 1 || report[0].Rounds != 0 {
		t.Fatalf("roster-only node = %+v", report[0])
	}
	if report[0].Wire == nil || report[0].Wire.BytesOut != 42 {
		t.Fatalf("wire stats lost: %+v", report[0].Wire)
	}
	// Observed node missing from meta keeps its tracked stats.
	if report[1].Rounds != 1 || report[1].SummaryEpoch != 0 {
		t.Fatalf("tracker-only node = %+v", report[1])
	}
}

// TestTrackerGauges: the tracker exports per-node gauges and refreshes
// the whole fleet's scores on every observation.
func TestTrackerGauges(t *testing.T) {
	reg := &telemetry.Registry{}
	tr := NewTracker(reg)
	tr.ObserveRound("n0", 100*time.Millisecond, "")
	tr.ObserveRound("n1", 400*time.Millisecond, "")
	tr.ObserveRound("n2", 100*time.Millisecond, "")

	lat := reg.Gauge("qens_fleet_latency_ewma_ms", telemetry.L("node", "n1")...)
	if lat.Value() != 400 {
		t.Fatalf("latency gauge = %v, want 400", lat.Value())
	}
	// Median over {100, 400, 100} is 100, so n1's speed is 0.25.
	score := reg.Gauge("qens_fleet_health_score", telemetry.L("node", "n1")...)
	if math.Abs(score.Value()-0.25) > 1e-9 {
		t.Fatalf("score gauge = %v, want 0.25", score.Value())
	}
	// Ignored: empty node IDs must not create phantom entries.
	tr.ObserveRound("", time.Millisecond, "")
	if len(tr.Report(nil)) != 3 {
		t.Fatal("empty node ID created a fleet entry")
	}
}

// TestTrackerObserveRoundAllocFree: a round on a known node allocates
// nothing — the median sorts a scratch slice the tracker keeps.
func TestTrackerObserveRoundAllocFree(t *testing.T) {
	tr := NewTracker(&telemetry.Registry{})
	for _, id := range []string{"n0", "n1", "n2", "n3", "n4"} {
		tr.ObserveRound(id, 3*time.Millisecond, "")
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		tr.ObserveRound("n2", time.Duration(i%7)*time.Millisecond, "")
	}); n != 0 {
		t.Fatalf("ObserveRound allocates %v, want 0", n)
	}
}
