package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qens/internal/telemetry"
)

// Trace consumption: the observability layer (internal/telemetry)
// exports per-query spans as JSONL; this file turns a span stream into
// the per-phase latency report the experiment harness appends to its
// output — per-span-name count, total and mean plus the trace count,
// so a `qens -trace run.jsonl fig8` run shows where the wall-clock
// went (selection vs train vs aggregation).

// TraceSummary aggregates a span stream by span name.
type TraceSummary struct {
	// Traces is the number of distinct trace IDs (≈ executed queries).
	Traces int
	// Spans is the total number of spans.
	Spans int
	// Errors is the number of spans that recorded an error.
	Errors int
	// Procs is the number of distinct processes contributing spans
	// (leader plus node engines whose phase spans were piggybacked
	// back); 1 means the stream is leader-only.
	Procs int
	// ByName aggregates per span name.
	ByName map[string]SpanAggregate
	// ByCategory is the critical-path decomposition summed across every
	// assemblable trace (see telemetry.CriticalPath): milliseconds of
	// root wall time attributed to queue, plan, rpc, wire, train,
	// aggregate, or other. Empty when no trace in the stream had a root.
	ByCategory map[string]float64
	// CriticalMS is the total critical-path time (the sum of
	// ByCategory).
	CriticalMS float64
}

// SpanAggregate is the per-name aggregate of a trace summary.
type SpanAggregate struct {
	Count int
	Total time.Duration
	Max   time.Duration
}

// Mean returns the average span duration.
func (a SpanAggregate) Mean() time.Duration {
	if a.Count == 0 {
		return 0
	}
	return a.Total / time.Duration(a.Count)
}

// SummarizeTraceSpans aggregates already-parsed spans.
func SummarizeTraceSpans(spans []telemetry.Span) (*TraceSummary, error) {
	s := &TraceSummary{ByName: map[string]SpanAggregate{}, ByCategory: map[string]float64{}}
	traces := map[string]bool{}
	procs := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.Name == "" {
			return nil, fmt.Errorf("experiments: malformed span (trace=%q name=%q)", sp.TraceID, sp.Name)
		}
		traces[sp.TraceID] = true
		if p := sp.Attrs["proc"]; p != "" {
			procs[p] = true
		} else {
			procs["leader"] = true
		}
		s.Spans++
		if sp.Error != "" {
			s.Errors++
		}
		agg := s.ByName[sp.Name]
		agg.Count++
		d := time.Duration(sp.DurationMS * float64(time.Millisecond))
		agg.Total += d
		if d > agg.Max {
			agg.Max = d
		}
		s.ByName[sp.Name] = agg
	}
	s.Traces = len(traces)
	s.Procs = len(procs)
	// Cross-process critical-path rollup: assemble each trace and sum
	// its per-category attribution. Traces that cannot be assembled
	// (rootless fragments from a partial stream) are skipped — the
	// per-name table above still covers them.
	for id := range traces {
		tree, err := telemetry.AssembleTrace(spans, id)
		if err != nil {
			continue
		}
		for cat, ms := range tree.CriticalPath().ByCategory {
			s.ByCategory[cat] += ms
			s.CriticalMS += ms
		}
	}
	return s, nil
}

// String renders the summary as an aligned table, span names sorted by
// total time descending, followed by the cross-process critical-path
// rollup when any trace could be assembled.
func (s *TraceSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace summary: %d traces, %d spans, %d errors, %d processes\n",
		s.Traces, s.Spans, s.Errors, s.Procs)
	names := make([]string, 0, len(s.ByName))
	for n := range s.ByName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if s.ByName[names[i]].Total != s.ByName[names[j]].Total {
			return s.ByName[names[i]].Total > s.ByName[names[j]].Total
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(&b, "  %-14s %8s %12s %12s %12s\n", "span", "count", "total", "mean", "max")
	for _, n := range names {
		a := s.ByName[n]
		fmt.Fprintf(&b, "  %-14s %8d %12s %12s %12s\n",
			n, a.Count, a.Total.Round(time.Microsecond),
			a.Mean().Round(time.Microsecond), a.Max.Round(time.Microsecond))
	}
	if s.CriticalMS > 0 {
		cats := make([]string, 0, len(s.ByCategory))
		for c := range s.ByCategory {
			cats = append(cats, c)
		}
		sort.Slice(cats, func(i, j int) bool {
			if s.ByCategory[cats[i]] != s.ByCategory[cats[j]] {
				return s.ByCategory[cats[i]] > s.ByCategory[cats[j]]
			}
			return cats[i] < cats[j]
		})
		fmt.Fprintf(&b, "critical path: %.3fms across %d traces\n", s.CriticalMS, s.Traces)
		for _, c := range cats {
			ms := s.ByCategory[c]
			fmt.Fprintf(&b, "  %-14s %11.3fms %6.1f%%\n", c, ms, 100*ms/s.CriticalMS)
		}
	}
	return b.String()
}
