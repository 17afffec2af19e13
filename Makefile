# qens build/verify harness. `make check` is the tier-1 gate referenced
# by ROADMAP.md and what the GitHub Actions workflow runs: formatting,
# vet, build, the race-enabled test run (which includes the live-stack
# drill, TestLiveStack in live_test.go), and the same for the nested
# benchmark module.

GO ?= go

.PHONY: all check fuzz fmt fmt-check vet build test race rerun bench-check loc loc-check bench bench-train bench-wire bench-telemetry bench-shard bench-ingest bench-reuse bench-paper clean

all: check

check: fmt-check vet build race rerun bench-check loc-check

# Short fuzz campaigns over every fuzz target outside bench/: the
# wire-facing parsers and dispatcher, the CSV reader behind qensd -data,
# the geometry kernels, the gateway's request-body fast path against
# encoding/json, and the training shuffle's match with math/rand; CI
# runs this list with FUZZTIME=20s. TestFuzzTargetsInMakefile fails
# when a target is missing here or a line names no target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzWireV2 -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzWirePush -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzRTreePrune -fuzztime $(FUZZTIME) ./internal/geometry/
	$(GO) test -run '^$$' -fuzz FuzzCoverageProfile -fuzztime $(FUZZTIME) ./internal/geometry/
	$(GO) test -run '^$$' -fuzz FuzzIntervalOverlap -fuzztime $(FUZZTIME) ./internal/geometry/
	$(GO) test -run '^$$' -fuzz FuzzIoU -fuzztime $(FUZZTIME) ./internal/geometry/
	$(GO) test -run '^$$' -fuzz FuzzPermInto -fuzztime $(FUZZTIME) ./internal/rng/
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime $(FUZZTIME) ./internal/gateway/

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

# Non-test Go lines per internal package and per command — ROADMAP's
# "number to push down" — and for the whole repo outside bench/, then
# the test lines outside bench/.
loc:
	@for d in internal/*/ cmd/*/; do \
		printf '%-22s %6d\n' "$$d" "$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l)"; \
	done
	@printf '%-22s %6d\n' "repo (without bench/)" \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@printf '%-22s %6d\n' "tests (without bench/)" \
		"$$(find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)"

# The serving packages' non-test line budget: ROADMAP item 2 pushes
# federation+region+gateway down, so growing them past the committed
# number fails the gate. Lower LOC_BUDGET when a PR shrinks them.
LOC_BUDGET ?= 5776
loc-check:
	@n=$$(cat $$(ls internal/federation/*.go internal/region/*.go internal/gateway/*.go | grep -v _test.go) | wc -l); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "loc-check: federation+region+gateway hold $$n non-test lines, budget $(LOC_BUDGET)"; exit 1; \
	fi

# Micro-benchmark gates, one target per gate of scripts/benchgate: the
# gate's `go test -bench` runs, then its checks (the gates table in
# scripts/benchgate/main.go holds every row, metric and bound). Each
# writes the committed BENCH_<gate>.json and fails when a check fails.
# BENCHTIME overrides the per-case budget (default 1s; reuse 5x, its
# lookup rows pinned at 20000x), e.g. BENCHTIME=100ms for a smoke.
#
#   bench            planner (BenchmarkPlan)
#   bench-train      node training engine (BenchmarkNodeTrain*)
#   bench-wire       wire codec and RPC pipelining (BenchmarkWire*)
#   bench-telemetry  rolling histograms and tracing
#   bench-shard      single leader vs 2-region root (BenchmarkShardServe)
#   bench-ingest     incremental requantization, push vs pull bytes
#   bench-reuse      exact-only vs approx-tier replay, cache-hit lookups
bench:
	$(GO) run ./scripts/benchgate plan

bench-train:
	$(GO) run ./scripts/benchgate train

bench-wire:
	$(GO) run ./scripts/benchgate wire

bench-telemetry:
	$(GO) run ./scripts/benchgate telemetry

bench-shard:
	$(GO) run ./scripts/benchgate shard

bench-ingest:
	$(GO) run ./scripts/benchgate ingest

bench-reuse:
	$(GO) run ./scripts/benchgate reuse

# Paper-figure macro benchmarks (Tables I-II, Figures 6-9); these
# train real fleets and take minutes.
bench-paper:
	$(GO) test -bench=. -benchmem -run '^$$' .

clean:
	$(GO) clean -testcache
