package federation

import (
	"time"

	"qens/internal/query"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Leader-side observability: every query execution opens a trace
// (selection → per-node train rounds → aggregation) and feeds the
// process-default metric registry. A participant's round is recorded
// once per sink: its "train" span carries the node, the leader-observed
// duration and the error, qens_leader_train_round_ms{node} the latency,
// and Result.Failed plus qens_node_failures_total a tolerated failure.
// Tracing is a no-op until a tracer is installed (Leader.SetTracer, or
// telemetry.SetDefaultTracer for leaders built where no caller can pin
// one), and metric updates are lock-free, so the uninstrumented cost is
// a few atomic ops per query.

// ObserveQuery records one trained query in reg — qens_queries_total by
// selector, qens_selection_ms, and qens_node_failures_total for
// tolerated failures. The single leader and the root coordinator both
// report through it, so either topology emits the same series.
func ObserveQuery(reg *telemetry.Registry, selector string, selectionTime time.Duration, failed int) {
	reg.Counter("qens_queries_total", telemetry.Label{Key: "selector", Value: selector}).Inc()
	reg.Histogram("qens_selection_ms").ObserveDuration(selectionTime)
	if failed > 0 {
		reg.Counter("qens_node_failures_total").Add(int64(failed))
	}
}

// SetTracer pins a tracer to this leader (overriding the process
// default). Pass nil to fall back to telemetry.DefaultTracer.
func (l *Leader) SetTracer(t *telemetry.Tracer) { l.tracer = t }

// activeTracer resolves the tracer to use for a query.
func (l *Leader) activeTracer() *telemetry.Tracer {
	if l.tracer != nil {
		return l.tracer
	}
	return telemetry.DefaultTracer()
}

// startQuerySpan opens the root span for one query execution.
func (l *Leader) startQuerySpan(q query.Query, sel selection.Selector) *telemetry.SpanHandle {
	sp := l.activeTracer().StartTrace("query")
	sp.SetAttr("query", q.ID)
	sp.SetAttr("selector", sel.Name())
	return sp
}

// startTrainSpan opens a per-node train child span.
func startTrainSpan(parent *telemetry.SpanHandle, nodeID string) *telemetry.SpanHandle {
	sp := parent.Child("train")
	sp.SetAttr("node", nodeID)
	return sp
}

// RecordRemoteSpans re-parents phase spans reported by a remote process
// (a node, or a regional leader in the hierarchical topology) under the
// local RPC span that solicited them, stamping proc as the span's
// owning process. The root coordinator uses this to fold regional and
// node spans piggybacked on region RPCs into one cross-process trace
// tree. No-op when tracing is off or the response carried no spans.
func RecordRemoteSpans(t *telemetry.Tracer, rpc *telemetry.SpanHandle, proc string, spans []NodeSpan) {
	for _, s := range spans {
		t.RecordRemote(rpc, proc, s.Name, s.Start(), s.End())
	}
}
