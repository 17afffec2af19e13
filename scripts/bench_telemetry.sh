#!/bin/sh
# Runs the telemetry microbenchmarks (BenchmarkRollingObserve: the
# per-observation write path every request on the serving hot path
# pays; BenchmarkRollingStats: the memoized merged read behind /metrics
# scrapes and /v1/stats; BenchmarkTraceQuery: one traced query — root,
# selection, 3 train, aggregation spans plus 9 re-parented node phase
# spans — into a tracer at its retention cap) and renders the results
# as BENCH_telemetry.json at the repo root.
#
#   BENCHTIME=100ms sh scripts/bench_telemetry.sh   # CI smoke
#   sh scripts/bench_telemetry.sh                   # local, default 1s/op
#
# The script exits non-zero on any contract regression:
#   - BenchmarkRollingObserve reports a nonzero allocs/op: the rolling
#     write path is contractually wait-free and allocation-free.
#   - BenchmarkRollingStats exceeds 200 ns/op: the memoized read must
#     stay one atomic load on the common path, not a full ring merge.
#   - BenchmarkTraceQuery reports more than 6 allocs/op: an always-on
#     trace allocates its 6 span handles and nothing else (no ID text,
#     no attribute maps, no retained-span copies).
set -eu

cd "$(dirname "$0")/.."
benchtime="${BENCHTIME:-1s}"

out=$(go test -run '^$' -bench '^Benchmark(Rolling(Observe|Stats)|TraceQuery)$' -benchmem -benchtime "$benchtime" ./internal/telemetry/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
  BEGIN { printf "[\n"; bad = 0 }
  $1 ~ /^Benchmark(Rolling|TraceQuery)/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns_op = ""; bytes_op = ""; allocs_op = ""
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op")     ns_op = $(i-1)
      if ($i == "B/op")      bytes_op = $(i-1)
      if ($i == "allocs/op") allocs_op = $(i-1)
    }
    if (ns_op == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns_op
    if (bytes_op != "")  printf ", \"bytes_per_op\": %s", bytes_op
    if (allocs_op != "") printf ", \"allocs_per_op\": %s", allocs_op
    printf "}"
    ns[name] = ns_op; allocs[name] = allocs_op
  }
  END {
    printf "\n]\n"
    ob = "BenchmarkRollingObserve"; st = "BenchmarkRollingStats"; tq = "BenchmarkTraceQuery"
    if (!(ob in ns) || !(st in ns) || !(tq in ns)) {
      printf "MISSING CASES: telemetry benchmarks did not all run\n" > "/dev/stderr"
      exit 1
    }
    if (allocs[ob] + 0 != 0) {
      bad = 1
      printf "ALLOC REGRESSION: %s reports %s allocs/op, want 0\n", ob, allocs[ob] > "/dev/stderr"
    }
    if (allocs[tq] + 0 > 6) {
      bad = 1
      printf "ALLOC REGRESSION: %s reports %s allocs/op, want <= 6 (one per span handle)\n", tq, allocs[tq] > "/dev/stderr"
    }
    if (ns[st] + 0 > 200) {
      bad = 1
      printf "READ REGRESSION: %s at %s ns/op exceeds the 200 ns/op budget for the memoized merge\n", \
        st, ns[st] > "/dev/stderr"
    }
    exit bad
  }
' > BENCH_telemetry.json

count=$(grep -c '"name"' BENCH_telemetry.json)
echo "bench_telemetry: wrote BENCH_telemetry.json ($count results, benchtime $benchtime)"
