# qens build/verify harness. `make check` is the tier-1 gate referenced
# by ROADMAP.md: formatting, vet, build, the race-enabled test run, and
# the same for the nested benchmark module.
# `make ci` is what the GitHub Actions workflow runs: the full check
# plus a live gateway load-smoke against a tiny simulated fleet.

GO ?= go

.PHONY: all check ci loadsmoke fuzz fmt fmt-check vet build test race rerun bench-check loc loc-check bench bench-train bench-wire bench-telemetry bench-shard bench-ingest bench-reuse bench-paper clean

all: check

check: fmt-check vet build race rerun bench-check loc-check

ci: check loadsmoke

# End-to-end serving smoke: boots qens-gateway, drives it with
# qensload, then asserts a clean SIGTERM drain and trace flush.
loadsmoke:
	sh scripts/loadsmoke.sh

# Short fuzz campaigns over the wire-facing parsers.
fuzz:
	$(GO) test -fuzz FuzzReadWorkload -fuzztime 30s ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzWireV2 -fuzztime 30s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzWirePush -fuzztime 30s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzRTreePrune -fuzztime 30s ./internal/geometry/
	$(GO) test -run '^$$' -fuzz FuzzCoverageProfile -fuzztime 30s ./internal/geometry/

fmt:
	gofmt -w .

# gofmt -l prints offending files; fail loudly when any exist.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every test twice in one process, without -race: a test asserting an
# absolute value of process-global state (a telemetry counter, a
# histogram) fails its second run, and the allocation tests that skip
# themselves under -race run here.
rerun:
	$(GO) test -count=2 ./...

# bench/ is its own module (qens/bench), so `./...` at the root does
# not see it; it compiles against internal/*, so an API refactor there
# can break the repository benchmark without any root check noticing.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test -race ./...

# Non-test Go lines per internal package — ROADMAP's "number to push
# down" — and for the whole repo outside bench/.
loc:
	@for d in internal/*/; do \
		printf '%-22s %6d\n' "$$d" "$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l)"; \
	done
	@printf '%-22s %6d\n' "repo (without bench/)" \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)"

# The serving packages' non-test line budget: ROADMAP item 2 pushes
# federation+region+gateway down, so growing them past the committed
# number fails the gate. Lower LOC_BUDGET when a PR shrinks them.
LOC_BUDGET ?= 6272
loc-check:
	@n=$$(cat $$(ls internal/federation/*.go internal/region/*.go internal/gateway/*.go | grep -v _test.go) | wc -l); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "loc-check: federation+region+gateway hold $$n non-test lines, budget $(LOC_BUDGET)"; exit 1; \
	fi

# Planner microbenchmarks (BenchmarkPlan, fleet size x dims) rendered
# as BENCH_plan.json; fails if the query-driven fast path allocates.
# Override the per-case budget with BENCHTIME=100ms for a quick smoke.
bench:
	sh scripts/bench_plan.sh

# Node training-engine microbenchmarks (BenchmarkNodeTrain, view vs
# copy data paths, LR view rows at 1 and 5 local epochs) rendered as
# BENCH_train.json; fails if the LR per-cluster data plane allocates,
# a whole LR engine job allocates more than 4 times, or the engine
# path loses its >=2x edge over the copy path at 10k samples.
bench-train:
	sh scripts/bench_train.sh

# Wire-protocol microbenchmarks (BenchmarkWireEncode/Decode: v2 binary
# against an encoding/json reference row; BenchmarkWireRPC: 1 vs 8
# callers on one connection) rendered as BENCH_wire.json; fails if the
# v2 encode or decode path allocates, loses its >=2x encode / >=3x encode+decode /
# >=2x wire-size edge over JSON, or 8 pipelined callers drop below 1.8x
# one.
bench-wire:
	sh scripts/bench_wire.sh

# Telemetry microbenchmarks (BenchmarkRollingObserve /
# BenchmarkRollingStats / BenchmarkTraceQuery) rendered as
# BENCH_telemetry.json; fails if the rolling Observe hot path allocates,
# the memoized merged read exceeds 200ns/op, or a traced query
# allocates more than its 6 span handles.
bench-telemetry:
	sh scripts/bench_telemetry.sh

# Sharded-topology serving benchmark (BenchmarkShardServe, single
# leader vs 2-region root coordinator over the same fleet) rendered as
# BENCH_shard.json; fails if the 2-region topology serves less than
# 1.6x the single-leader throughput.
bench-shard:
	sh scripts/bench_shard.sh

# Streaming-ingestion benchmarks (BenchmarkRequantize10k incremental
# vs full Lloyd at 10k samples / 1% batches; push vs pull wire bytes
# per epoch bump) rendered as BENCH_ingest.json; fails if incremental
# requantization is not >=3x faster or push is not below pull.
bench-ingest:
	sh scripts/bench_ingest.sh

# Adaptive-serving replay benchmark (BenchmarkReuseReplay, exact-only
# reuse cache vs the approximate model-answer tier over the same
# contained-heavy workload) plus the cache-hit microbenchmark
# (BenchmarkReuseLookup, exact/approx tier x 32/1024 entries) rendered
# as BENCH_reuse.json; fails if the approx tier cuts federated training
# executions by less than 30%, lets served-answer MSE past 2x the
# exact-only replay, or a cache hit allocates.
bench-reuse:
	sh scripts/bench_reuse.sh

# Paper-figure macro benchmarks (Tables I-II, Figures 6-9); these
# train real fleets and take minutes.
bench-paper:
	$(GO) test -bench=. -benchmem -run '^$$' .

clean:
	$(GO) clean -testcache
