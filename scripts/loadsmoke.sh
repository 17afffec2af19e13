#!/bin/sh
# loadsmoke.sh — end-to-end smoke of the serving stack: build
# qens-gateway and qensload, boot a tiny simulated fleet, fire a short
# closed-loop load run, then SIGTERM the gateway and assert it drains
# cleanly; then repeat against a sharded topology (two qens-region
# daemons under a root gateway with the reuse cache on) and assert the
# per-region routing surface and the root's cache hits; then a
# sustained-ingest soak (three qensd, one streaming with a drift
# schedule, under closed-loop load, the gateway ticking its
# anti-entropy pull every second) asserting autonomous escalation,
# push-mode freshness on every node, conditional pulls that never
# re-fetch the fleet, and a flat p99. Used by `make loadsmoke` /
# `make ci`.
set -eu

ADDR="${QENS_SMOKE_ADDR:-127.0.0.1:18080}"
URL="http://${ADDR}"
SHARD_ADDR="${QENS_SMOKE_SHARD_ADDR:-127.0.0.1:18081}"
SHARD_URL="http://${SHARD_ADDR}"
R0_ADDR="${QENS_SMOKE_R0_ADDR:-127.0.0.1:17101}"
R1_ADDR="${QENS_SMOKE_R1_ADDR:-127.0.0.1:17102}"
QD0_ADDR="${QENS_SMOKE_QD0_ADDR:-127.0.0.1:17201}"
QD0_OBS="${QENS_SMOKE_QD0_OBS:-127.0.0.1:19201}"
QD1_ADDR="${QENS_SMOKE_QD1_ADDR:-127.0.0.1:17202}"
QD2_ADDR="${QENS_SMOKE_QD2_ADDR:-127.0.0.1:17203}"
INGEST_ADDR="${QENS_SMOKE_INGEST_ADDR:-127.0.0.1:18082}"
INGEST_URL="http://${INGEST_ADDR}"
BIN="$(mktemp -d)"
GW_PID=""
R0_PID=""
R1_PID=""
QD0_PID=""
QD1_PID=""
QD2_PID=""

cleanup() {
    status=$?
    for pid in "$GW_PID" "$R0_PID" "$R1_PID" "$QD0_PID" "$QD1_PID" "$QD2_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -KILL "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$BIN"
    exit $status
}
trap cleanup EXIT INT TERM

echo "loadsmoke: building binaries"
go build -o "$BIN/qens-gateway" ./cmd/qens-gateway
go build -o "$BIN/qens-region" ./cmd/qens-region
go build -o "$BIN/qensload" ./cmd/qensload
go build -o "$BIN/qensd" ./cmd/qensd

echo "loadsmoke: starting gateway on $ADDR (3 nodes x 200 samples)"
"$BIN/qens-gateway" -addr "$ADDR" -nodes 3 -samples 200 -k 4 -epochs 3 \
    -workers 4 -queue 32 -trace "$BIN/trace.jsonl" &
GW_PID=$!

# qensload polls /v1/stats until the gateway is up (-wait), so no
# separate readiness loop is needed here.
echo "loadsmoke: running closed-loop load"
"$BIN/qensload" -url "$URL" -clients 8 -requests 64 -distinct 6 \
    -topl 2 -timeout-ms 30000 -wait 15s

echo "loadsmoke: checking fleet health endpoint"
fleet_json=$(curl -sf "$URL/v1/fleet")
case "$fleet_json" in
    *'"node_id":"node-0"'*) ;;
    *)
        echo "loadsmoke: FAIL /v1/fleet missing node-0 entry: $fleet_json" >&2
        exit 1
        ;;
esac
case "$fleet_json" in
    *'"score":'*) ;;
    *)
        echo "loadsmoke: FAIL /v1/fleet entries carry no health score: $fleet_json" >&2
        exit 1
        ;;
esac

echo "loadsmoke: checking cross-process trace assembly"
trace_id=$(curl -sf "$URL/v1/traces" \
    | sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p' | head -n 1)
if [ -z "$trace_id" ]; then
    echo "loadsmoke: FAIL /v1/traces lists no retained traces" >&2
    exit 1
fi
trace_json=$(curl -sf "$URL/v1/trace/$trace_id")
case "$trace_json" in
    *'"critical_path"'*) ;;
    *)
        echo "loadsmoke: FAIL /v1/trace/$trace_id has no critical-path report" >&2
        exit 1
        ;;
esac
case "$trace_json" in
    *'"name":"node.'*) ;;
    *)
        echo "loadsmoke: FAIL assembled trace $trace_id carries no node-side spans" >&2
        exit 1
        ;;
esac
echo "loadsmoke: trace $trace_id assembled with node spans and critical path"

echo "loadsmoke: draining gateway (SIGTERM)"
kill -TERM "$GW_PID"
i=0
while kill -0 "$GW_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "loadsmoke: FAIL gateway did not exit within 30s of SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
if ! wait "$GW_PID"; then
    echo "loadsmoke: FAIL gateway exited non-zero after SIGTERM" >&2
    exit 1
fi
GW_PID=""

if [ ! -s "$BIN/trace.jsonl" ]; then
    echo "loadsmoke: FAIL trace file empty — spans not flushed on shutdown" >&2
    exit 1
fi
echo "loadsmoke: OK ($(wc -l <"$BIN/trace.jsonl") trace spans flushed)"

# --- Sharded topology: two regional leaders under a root gateway ----

echo "loadsmoke: starting 2 regional leaders (4 nodes x 200 samples)"
"$BIN/qens-region" -addr "$R0_ADDR" -region 0 -regions 2 \
    -nodes 4 -samples 200 -k 3 -epochs 2 >"$BIN/region0.log" 2>&1 &
R0_PID=$!
"$BIN/qens-region" -addr "$R1_ADDR" -region 1 -regions 2 \
    -nodes 4 -samples 200 -k 3 -epochs 2 >"$BIN/region1.log" 2>&1 &
R1_PID=$!

# Wait for both daemons to report their shard before the root dials.
i=0
until grep -q "serving shard" "$BIN/region0.log" 2>/dev/null \
    && grep -q "serving shard" "$BIN/region1.log" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "loadsmoke: FAIL regional leaders not up within 30s" >&2
        cat "$BIN/region0.log" "$BIN/region1.log" >&2 || true
        exit 1
    fi
    sleep 0.1
done

echo "loadsmoke: starting root gateway on $SHARD_ADDR"
"$BIN/qens-gateway" -addr "$SHARD_ADDR" -region-addrs "$R0_ADDR,$R1_ADDR" \
    -workers 4 -queue 32 -reuse-iou 0.9 &
GW_PID=$!

echo "loadsmoke: running closed-loop load against the sharded topology"
load_out=$("$BIN/qensload" -url "$SHARD_URL" -clients 4 -requests 32 -distinct 6 \
    -topl 2 -timeout-ms 30000 -wait 15s)
printf '%s\n' "$load_out"
case "$load_out" in
    *'routing  region-0'*) ;;
    *)
        echo "loadsmoke: FAIL qensload printed no per-region routing distribution" >&2
        exit 1
        ;;
esac

# One region.plan round per request: the admission-time plan is the
# execution plan, so neither region may log more plan RPCs than requests
# were sent (planning again inside execute logged one more per trained
# query). This is the live cross-process check of the saved round, and
# it pins the per-RPC log line's text.
plans_total=0
for r in 0 1; do
    plans=$(grep -c 'event=rpc type=region.plan' "$BIN/region$r.log" || true)
    if [ "$plans" -gt 32 ]; then
        echo "loadsmoke: FAIL region-$r logged $plans region.plan RPCs for 32 requests" >&2
        exit 1
    fi
    plans_total=$((plans_total + plans))
done
if [ "$plans_total" -eq 0 ]; then
    echo "loadsmoke: FAIL no 'event=rpc type=region.plan' line in either region log" >&2
    exit 1
fi
echo "loadsmoke: $plans_total region.plan RPCs across both regions for 32 requests"

echo "loadsmoke: checking per-region stats and fleet surfaces"
stats_json=$(curl -sf "$SHARD_URL/v1/stats")
for want in '"router"' '"region_id":"region-0"' '"region_id":"region-1"' '"routed"'; do
    case "$stats_json" in
        *"$want"*) ;;
        *)
            echo "loadsmoke: FAIL /v1/stats missing $want: $stats_json" >&2
            exit 1
            ;;
    esac
done
# The root fronts the regions with the same reuse cache a single leader
# gets: its scoreboard sits at the top level of /v1/stats, and the 6
# distinct rectangles of the load run must have hit it.
reuse_hits=$(printf '%s' "$stats_json" | sed -n 's/.*"reuse_cache":{"hits":\([0-9]*\).*/\1/p')
if [ -z "$reuse_hits" ] || [ "$reuse_hits" -eq 0 ]; then
    echo "loadsmoke: FAIL root /v1/stats reports no reuse_cache hits: $stats_json" >&2
    exit 1
fi
case "$stats_json" in
    *'"router":{'*'"reuse_cache"'*)
        echo "loadsmoke: FAIL /v1/stats still nests a reuse_cache under router: $stats_json" >&2
        exit 1
        ;;
esac
echo "loadsmoke: root reuse cache served $reuse_hits hits"
fleet_json=$(curl -sf "$SHARD_URL/v1/fleet")
for want in '"regions"' '"region_id":"region-0"' '"registry_epoch"' '"score"'; do
    case "$fleet_json" in
        *"$want"*) ;;
        *)
            echo "loadsmoke: FAIL sharded /v1/fleet missing $want: $fleet_json" >&2
            exit 1
            ;;
    esac
done

echo "loadsmoke: draining sharded topology (SIGTERM)"
for pid in "$GW_PID" "$R0_PID" "$R1_PID"; do
    kill -TERM "$pid"
done
i=0
for pid in "$GW_PID" "$R0_PID" "$R1_PID"; do
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "loadsmoke: FAIL sharded topology did not exit within 30s of SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    if ! wait "$pid"; then
        echo "loadsmoke: FAIL pid $pid exited non-zero after SIGTERM" >&2
        exit 1
    fi
done
GW_PID=""; R0_PID=""; R1_PID=""
echo "loadsmoke: OK (sharded topology served, reported per-region stats, drained cleanly)"

# --- Sustained-ingest soak: live drift + push under closed-loop load --

echo "loadsmoke: starting 3 qensd daemons (node-0 streaming with drift)"
"$BIN/qensd" -addr "$QD0_ADDR" -synthetic 0 -nodes 3 -samples 200 -k 4 \
    -ingest-rate 400 -ingest-batch 32 -ingest-drift-after 2s -ingest-drift-shift 0.75 \
    -metrics-addr "$QD0_OBS" >"$BIN/qensd0.log" 2>&1 &
QD0_PID=$!
"$BIN/qensd" -addr "$QD1_ADDR" -synthetic 1 -nodes 3 -samples 200 -k 4 \
    >"$BIN/qensd1.log" 2>&1 &
QD1_PID=$!
"$BIN/qensd" -addr "$QD2_ADDR" -synthetic 2 -nodes 3 -samples 200 -k 4 \
    >"$BIN/qensd2.log" 2>&1 &
QD2_PID=$!
i=0
until grep -q "serving" "$BIN/qensd0.log" 2>/dev/null \
    && grep -q "serving" "$BIN/qensd1.log" 2>/dev/null \
    && grep -q "serving" "$BIN/qensd2.log" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "loadsmoke: FAIL qensd daemons not up within 30s" >&2
        cat "$BIN"/qensd*.log >&2 || true
        exit 1
    fi
    sleep 0.1
done

echo "loadsmoke: starting gateway on $INGEST_ADDR over the remote fleet"
"$BIN/qens-gateway" -addr "$INGEST_ADDR" -addrs "$QD0_ADDR,$QD1_ADDR,$QD2_ADDR" \
    -k 4 -epochs 2 -workers 4 -queue 32 -summary-refresh 1s >"$BIN/ingest-gw.log" 2>&1 &
GW_PID=$!

echo "loadsmoke: running pre-drift load burst"
"$BIN/qensload" -url "$INGEST_URL" -clients 4 -requests 32 -distinct 6 \
    -topl 2 -timeout-ms 30000 -wait 15s
p99_pre=$(curl -sf "$INGEST_URL/v1/stats" | sed -n 's/.*"p99_ms":\([0-9.]*\).*/\1/p')

# Every daemon must have accepted the subscription.
if ! grep -q "summary push from 3/3 nodes" "$BIN/ingest-gw.log"; then
    echo "loadsmoke: FAIL gateway did not report 3/3 push subscriptions" >&2
    cat "$BIN/ingest-gw.log" >&2 || true
    exit 1
fi

echo "loadsmoke: waiting for node-0's drift detector to escalate"
i=0
until curl -sf "http://$QD0_OBS/healthz" | grep -q '"escalations":[1-9]'; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "loadsmoke: FAIL drift never escalated to a full re-quantization" >&2
        curl -sf "http://$QD0_OBS/healthz" >&2 || true
        exit 1
    fi
    sleep 0.1
done
echo "loadsmoke: node-0 escalated autonomously"

echo "loadsmoke: running post-drift load burst"
"$BIN/qensload" -url "$INGEST_URL" -clients 4 -requests 32 -distinct 6 \
    -topl 2 -timeout-ms 30000 -wait 15s
p99_post=$(curl -sf "$INGEST_URL/v1/stats" | sed -n 's/.*"p99_ms":\([0-9.]*\).*/\1/p')

health_json=$(curl -sf "$INGEST_URL/healthz")
case "$health_json" in
    *'"summary_mode":"push"'*) ;;
    *)
        echo "loadsmoke: FAIL gateway not in push mode: $health_json" >&2
        exit 1
        ;;
esac
case "$health_json" in
    *'"push_applied":0'*)
        echo "loadsmoke: FAIL drifted advertisement never arrived by push: $health_json" >&2
        exit 1
        ;;
    *'"push_applied":'*) ;;
    *)
        echo "loadsmoke: FAIL /healthz carries no push counters: $health_json" >&2
        exit 1
        ;;
esac

# Drift, requantization and the 1s anti-entropy ticks must all have gone
# through the epoch-conditional pull (known-epoch request, "unchanged"
# marker or one body back) between two separate processes: the fleet was
# fetched in full exactly once, at bootstrap. The tick runs on the
# gateway's clock, so wait (bounded) for one.
i=0
while :; do
    stats_json=$(curl -sf "$INGEST_URL/v1/stats")
    delta_refreshes=$(printf '%s' "$stats_json" | sed -n 's/.*"delta_refreshes":\([0-9]*\).*/\1/p')
    if [ -n "$delta_refreshes" ] && [ "$delta_refreshes" -gt 0 ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "loadsmoke: FAIL no conditional pull ran under -summary-refresh 1s: $stats_json" >&2
        exit 1
    fi
    sleep 0.1
done
case "$stats_json" in
    *'"full_refreshes":1,'*) ;;
    *)
        echo "loadsmoke: FAIL fleet re-fetched in full after bootstrap: $stats_json" >&2
        exit 1
        ;;
esac
echo "loadsmoke: $delta_refreshes conditional pulls, 1 full fetch"

# p99 must stay flat through drift + requantization + pushes: allow a
# generous CI-noise envelope (5x + 250ms) — a refresh stampede or a
# blocked query path blows far past that.
if [ -n "$p99_pre" ] && [ -n "$p99_post" ]; then
    if ! awk -v pre="$p99_pre" -v post="$p99_post" \
        'BEGIN { exit !(post <= pre * 5 + 250) }'; then
        echo "loadsmoke: FAIL p99 not flat through drift: ${p99_pre}ms -> ${p99_post}ms" >&2
        exit 1
    fi
    echo "loadsmoke: p99 flat through drift (${p99_pre}ms -> ${p99_post}ms)"
else
    echo "loadsmoke: FAIL /v1/stats reported no p99 latency" >&2
    exit 1
fi

echo "loadsmoke: draining ingest topology (SIGTERM)"
for pid in "$GW_PID" "$QD0_PID" "$QD1_PID" "$QD2_PID"; do
    kill -TERM "$pid"
done
i=0
for pid in "$GW_PID" "$QD0_PID" "$QD1_PID" "$QD2_PID"; do
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "loadsmoke: FAIL ingest topology did not exit within 30s of SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    if ! wait "$pid"; then
        echo "loadsmoke: FAIL pid $pid exited non-zero after SIGTERM" >&2
        exit 1
    fi
done
GW_PID=""; QD0_PID=""; QD1_PID=""; QD2_PID=""
echo "loadsmoke: OK (sustained ingest: autonomous escalation, push freshness on 3/3 nodes, conditional pulls only, p99 flat)"
