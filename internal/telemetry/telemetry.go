// Package telemetry provides the process's metrics (lock-free labeled
// counters, gauges and log-bucket histograms in a Registry), per-query
// distributed tracing with a JSONL sink, and the /metrics, /healthz and
// pprof HTTP sidecar.
package telemetry
