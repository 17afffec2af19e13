#!/bin/sh
# Runs the wire-protocol microbenchmarks (BenchmarkWireEncode /
# BenchmarkWireDecode: the v2 binary codec against an encoding/json
# reference row over the same leader->node model frame, with
# frame_bytes as a reported metric; BenchmarkWireRPC: end-to-end
# throughput over loopback on one connection, 1 caller vs 8 concurrent
# callers) and renders the results as BENCH_wire.json at the repo root.
#
#   BENCHTIME=100ms sh scripts/bench_wire.sh   # CI smoke
#   sh scripts/bench_wire.sh                   # local, default 1s/op
#
# The script exits non-zero on any contract regression:
#   - BenchmarkWireEncode/codec=v2 reports a nonzero allocs/op: the
#     pooled-buffer encode path is contractually allocation-free at
#     steady state.
#   - BenchmarkWireDecode/codec=v2 reports a nonzero allocs/op: decode
#     reuses the destination's slices and the trace context is two raw
#     u64s, so a traced train frame decodes without allocating.
#   - v2 model-frame encode is less than 2x the throughput of JSON.
#   - combined encode+decode is less than 3x faster than JSON.
#   - the v2 frame is not at least 2x smaller than the JSON frame.
#   - 8 concurrent callers on one connection get less than 1.8x the
#     throughput of 1 (multiplexing; 22 local runs on 2 cores read
#     2.1x-3.6x, median 2.6x, with one 100ms-benchtime outlier).
set -eu

cd "$(dirname "$0")/.."
benchtime="${BENCHTIME:-1s}"

out=$(go test -run '^$' -bench '^BenchmarkWire(Encode|Decode|RPC)$' -benchmem -benchtime "$benchtime" ./internal/transport/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
  BEGIN { printf "[\n"; bad = 0 }
  $1 ~ /^BenchmarkWire/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns_op = ""; bytes_op = ""; allocs_op = ""; fb = ""
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op")       ns_op = $(i-1)
      if ($i == "frame_bytes") fb = $(i-1)
      if ($i == "B/op")        bytes_op = $(i-1)
      if ($i == "allocs/op")   allocs_op = $(i-1)
    }
    if (ns_op == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns_op
    if (fb != "")        printf ", \"frame_bytes\": %s", fb
    if (bytes_op != "")  printf ", \"bytes_per_op\": %s", bytes_op
    if (allocs_op != "") printf ", \"allocs_per_op\": %s", allocs_op
    printf "}"
    ns[name] = ns_op; frame[name] = fb; allocs[name] = allocs_op
  }
  END {
    printf "\n]\n"
    e1 = "BenchmarkWireEncode/codec=json"; e2 = "BenchmarkWireEncode/codec=v2"
    d1 = "BenchmarkWireDecode/codec=json"; d2 = "BenchmarkWireDecode/codec=v2"
    r1 = "BenchmarkWireRPC/concurrency=1"
    r2 = "BenchmarkWireRPC/concurrency=8"
    if (!(e1 in ns) || !(e2 in ns) || !(d1 in ns) || !(d2 in ns)) {
      printf "MISSING CASES: encode/decode benchmarks did not all run\n" > "/dev/stderr"
      exit 1
    }
    if (allocs[e2] + 0 != 0) {
      bad = 1
      printf "ALLOC REGRESSION: %s reports %s allocs/op, want 0\n", e2, allocs[e2] > "/dev/stderr"
    }
    if (allocs[d2] + 0 != 0) {
      bad = 1
      printf "ALLOC REGRESSION: %s reports %s allocs/op, want 0\n", d2, allocs[d2] > "/dev/stderr"
    }
    if (ns[e2] * 2 > ns[e1] + 0) {
      bad = 1
      printf "THROUGHPUT REGRESSION: v2 encode (%s ns/op) is not >=2x faster than JSON (%s ns/op)\n", \
        ns[e2], ns[e1] > "/dev/stderr"
    }
    if ((ns[e2] + ns[d2]) * 3 > ns[e1] + ns[d1]) {
      bad = 1
      printf "THROUGHPUT REGRESSION: v2 encode+decode (%s ns/op) is not >=3x faster than JSON (%s ns/op)\n", \
        ns[e2] + ns[d2], ns[e1] + ns[d1] > "/dev/stderr"
    }
    if (frame[e2] != "" && frame[e1] != "" && frame[e2] * 2 > frame[e1] + 0) {
      bad = 1
      printf "WIRE-SIZE REGRESSION: v2 frame (%s B) is not >=2x smaller than JSON (%s B)\n", \
        frame[e2], frame[e1] > "/dev/stderr"
    }
    if ((r1 in ns) && (r2 in ns) && ns[r2] * 1.8 > ns[r1] + 0) {
      bad = 1
      printf "RPC REGRESSION: 8 pipelined callers (%s ns/op) are not >=1.8x faster than 1 caller (%s ns/op)\n", \
        ns[r2], ns[r1] > "/dev/stderr"
    }
    exit bad
  }
' > BENCH_wire.json

count=$(grep -c '"name"' BENCH_wire.json)
echo "bench_wire: wrote BENCH_wire.json ($count results, benchtime $benchtime)"
