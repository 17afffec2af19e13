#!/bin/sh
# Runs the node training-engine microbenchmarks (BenchmarkNodeTrain:
# view vs copy data paths over model family x cluster count x shard
# size, with LR view rows at 1 and 5 local epochs, plus
# BenchmarkNodeTrainClusterAccess) and renders the results as
# BENCH_train.json at the repo root.
#
#   BENCHTIME=100ms sh scripts/bench_train.sh   # CI smoke
#   sh scripts/bench_train.sh                   # local, default 1s/op
#
# The script exits non-zero on either contract regression:
#   - BenchmarkNodeTrainClusterAccess reports a nonzero allocs/op:
#     the LR per-cluster data plane (ClusterView -> XYInto ->
#     PartialFitBatch) is contractually allocation-free at steady
#     state.
#   - the engine (view) path is less than 2x the throughput of the
#     pre-refactor copy path on any LR case with >= 10k samples.
#   - a whole LR train job on the engine path (path=view/model=lr)
#     reports more than 4 allocs/op: with the model pool and staging
#     buffers warm, a job allocates its returned Params and little
#     else.
set -eu

cd "$(dirname "$0")/.."
benchtime="${BENCHTIME:-1s}"

out=$(go test -run '^$' -bench '^BenchmarkNodeTrain' -benchmem -benchtime "$benchtime" ./internal/engine/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
  BEGIN { printf "[\n"; bad = 0 }
  $1 ~ /^BenchmarkNodeTrain/ && $4 == "ns/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
      name, $2, $3, $5, $7
    ns[name] = $3
    if (name == "BenchmarkNodeTrainClusterAccess" && $7 + 0 != 0) {
      bad = 1
      printf "\nALLOC REGRESSION: %s reports %s allocs/op, want 0\n", name, $7 > "/dev/stderr"
    }
    if (name ~ /path=view\/model=lr\// && $7 + 0 > 4) {
      bad = 1
      printf "\nALLOC REGRESSION: %s reports %s allocs/op, want <= 4\n", name, $7 > "/dev/stderr"
    }
  }
  END {
    printf "\n]\n"
    for (name in ns) {
      if (name !~ /path=view\/model=lr\//) continue
      if (name !~ /samples=[0-9]*0000$/) continue   # gate only >=10k-sample cases
      peer = name; sub(/path=view/, "path=copy", peer)
      if (!(peer in ns)) continue
      if (ns[name] * 2 > ns[peer]) {
        bad = 1
        printf "THROUGHPUT REGRESSION: %s (%s ns/op) is not >=2x faster than %s (%s ns/op)\n", \
          name, ns[name], peer, ns[peer] > "/dev/stderr"
      }
    }
    exit bad
  }
' > BENCH_train.json

count=$(grep -c '"name"' BENCH_train.json)
echo "bench_train: wrote BENCH_train.json ($count results, benchtime $benchtime)"
