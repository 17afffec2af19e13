#!/bin/sh
# Runs the adaptive-serving replay benchmark (BenchmarkReuseReplay:
# one 48-query contained-heavy workload replayed through the original
# exact-only reuse cache versus the adaptive cache with the
# approximate model-answer tier) and the cache-hit microbenchmark
# (BenchmarkReuseLookup: one exact / approx hit on a full cache of 32
# and 1024 entries) and renders the results as BENCH_reuse.json at the
# repo root.
#
#   BENCHTIME=1x sh scripts/bench_reuse.sh   # CI smoke
#   sh scripts/bench_reuse.sh                # local, default 5 replays
#
# Three contracts, all enforced (the script exits non-zero on any):
#   - the approximate tier must cut federated training executions by
#     >=30% versus the exact-only cache on the same workload — the
#     headline claim: answerable queries stop paying training RPCs.
#   - served-answer quality must stay bounded: mean held-out MSE under
#     the approximate tier within 2x of the exact-only replay. Cheap
#     answers that are wrong answers do not count.
#   - a cache hit performs no heap allocation, at either tier and
#     either capacity: the reuse tier must not give back in lookup cost
#     what it saves in training.
set -eu

cd "$(dirname "$0")/.."
benchtime="${BENCHTIME:-5x}"

# The lookup rows run a fixed iteration count: a hit is microseconds, so
# the replay's handful of iterations would time nothing.
out=$(go test -run '^$' -bench '^BenchmarkReuseReplay$' -benchmem -benchtime "$benchtime" ./internal/federation/ &&
  go test -run '^$' -bench '^BenchmarkReuseLookup$' -benchmem -benchtime 20000x ./internal/federation/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
  BEGIN { printf "[\n"; bad = 0 }
  $1 ~ /^BenchmarkReuse(Replay|Lookup)\// {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns_op = ""; tq = ""; m = ""; bytes_op = ""; allocs_op = ""
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op")           ns_op = $(i-1)
      if ($i == "trained_queries") tq = $(i-1)
      if ($i == "mse")             m = $(i-1)
      if ($i == "B/op")            bytes_op = $(i-1)
      if ($i == "allocs/op")       allocs_op = $(i-1)
    }
    if (ns_op == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns_op
    if (tq != "")        printf ", \"trained_queries\": %s", tq
    if (m != "")         printf ", \"mse\": %s", m
    if (bytes_op != "")  printf ", \"bytes_per_op\": %s", bytes_op
    if (allocs_op != "") printf ", \"allocs_per_op\": %s", allocs_op
    printf "}"
    trained[name] = tq; mse[name] = m
    if (name ~ /^BenchmarkReuseLookup\//) {
      lookups++
      if (allocs_op + 0 != 0 || allocs_op == "") {
        bad = 1
        printf "ALLOC REGRESSION: %s allocates %s/op on a cache hit (want 0)\n", name, allocs_op > "/dev/stderr"
      }
    }
  }
  END {
    printf "\n]\n"
    seed = "BenchmarkReuseReplay/mode=seed"
    apx  = "BenchmarkReuseReplay/mode=approx"
    if (!(seed in trained) || !(apx in trained)) {
      printf "MISSING CASES: seed and approx replay modes did not both run\n" > "/dev/stderr"
      exit 1
    }
    if (lookups != 4) {
      printf "MISSING CASES: %d of 4 BenchmarkReuseLookup rows ran\n", lookups > "/dev/stderr"
      exit 1
    }
    if (trained[seed] + 0 <= 0) {
      printf "BAD BASELINE: seed replay reports %s trained queries\n", trained[seed] > "/dev/stderr"
      exit 1
    }
    cut = 1 - (trained[apx] + 0) / (trained[seed] + 0)
    printf "bench_reuse: approx tier cuts trained queries %.0f%% (%s -> %s per replay)\n", \
      cut * 100, trained[seed], trained[apx] > "/dev/stderr"
    if (cut < 0.30) {
      bad = 1
      printf "REUSE REGRESSION: approx tier cuts training executions only %.0f%% (want >=30%%)\n", \
        cut * 100 > "/dev/stderr"
    }
    if (mse[seed] != "" && mse[apx] != "" && mse[apx] + 0 > (mse[seed] + 0) * 2) {
      bad = 1
      printf "QUALITY REGRESSION: approx replay MSE %s exceeds 2x the seed replay MSE %s\n", \
        mse[apx], mse[seed] > "/dev/stderr"
    }
    exit bad
  }
' > BENCH_reuse.json

count=$(grep -c '"name"' BENCH_reuse.json)
echo "bench_reuse: wrote BENCH_reuse.json ($count results, benchtime $benchtime)"
