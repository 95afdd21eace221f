#!/bin/sh
# prof_smoke.sh boots hdserve with a fast continuous-profiling cadence,
# drives batch-scoring load, and asserts the self-observability surface
# end to end: a scheduled CPU capture lands in the ring, downloads as a
# valid gzipped pprof blob whose `go tool pprof -top` table names an
# encode/hv frame, the hdfe_runtime_* and hdfe_prof_* metric families
# scrape, and the watchdogs report state at /debug/prof. Run via
# `make prof-smoke`.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$ROOT"
go build -o "$TMP/hdserve" ./cmd/hdserve

# A larger-than-default model so each batch burns enough CPU for the
# profiler's sampler to catch encode/score frames.
"$TMP/hdserve" -write-demo "$TMP/model.bin" -dim 4096 -seed 42 >/dev/null

"$TMP/hdserve" -model "$TMP/model.bin" -name prof-smoke -addr 127.0.0.1:0 \
    -log-format json -prof-interval 500ms -prof-cpu-ms 300 \
    >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*"msg":"serving".*"addr":"\([^"]*\)".*/\1/p' "$TMP/stdout.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "prof-smoke: hdserve exited early" >&2
        cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "prof-smoke: server never logged its address" >&2
    cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
    exit 1
fi
echo "prof-smoke: serving on $ADDR"

# A 256-record batch body: the same row repeated keeps the JSON cheap to
# build in shell while still exercising the vectorized encode path.
ROW='[2,120,70,25,100,30.5,0.4,40]'
BODY='{"records":['
i=0
while [ $i -lt 256 ]; do
    [ $i -gt 0 ] && BODY="$BODY,"
    BODY="$BODY$ROW"
    i=$((i + 1))
done
BODY="$BODY]}"
printf '%s' "$BODY" >"$TMP/batch.json"

# Drive load in the background so the scheduled CPU windows observe a
# busy encode/score path.
(
    while :; do
        curl -s -o /dev/null -X POST "http://$ADDR/v1/score/batch" \
            -H 'Content-Type: application/json' --data-binary @"$TMP/batch.json" || exit 0
    done
) &
LOAD_PID=$!

# Poll /debug/prof for the newest CPU capture (the ring lists newest
# first), download each new one, and stop once `go tool pprof -top`
# names a hot-path frame (internal/encode or internal/hv) in it.
CAPTURE_ID=""
CHECKED=""
for _ in $(seq 1 300); do
    curl -sSf "http://$ADDR/debug/prof" >"$TMP/prof.json" 2>/dev/null || {
        sleep 0.1
        continue
    }
    NEWEST=$(grep -o '"id":[0-9]*,"kind":"cpu"' "$TMP/prof.json" | head -n1 | sed 's/"id":\([0-9]*\).*/\1/')
    if [ -n "$NEWEST" ] && [ "$NEWEST" != "$CHECKED" ]; then
        CHECKED=$NEWEST
        curl -sSf "http://$ADDR/debug/prof/$NEWEST" -o "$TMP/capture.pb.gz"
        go tool pprof -top "$TMP/capture.pb.gz" >"$TMP/top.txt" 2>/dev/null || true
        if grep -q 'internal/encode\|internal/hv' "$TMP/top.txt"; then
            CAPTURE_ID=$NEWEST
            break
        fi
    fi
    sleep 0.1
done
kill "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
if [ -z "$CAPTURE_ID" ]; then
    echo "prof-smoke: no CPU capture with an encode/hv frame within 30s" >&2
    cat "$TMP/prof.json" "$TMP/top.txt" >&2 2>/dev/null || true
    exit 1
fi
echo "prof-smoke: hot-path CPU capture id=$CAPTURE_ID"
grep -m 3 'internal/encode\|internal/hv' "$TMP/top.txt"

# The index reports the effective cadence and the watchdog states.
for field in '"interval_ms":500' '"watchdogs"' '"goroutines"' '"heap_slope"' '"gc_pause"'; do
    if ! grep -q "$field" "$TMP/prof.json"; then
        echo "prof-smoke: /debug/prof missing $field" >&2
        cat "$TMP/prof.json" >&2
        exit 1
    fi
done

# The capture downloads as the gzipped pprof blob runtime/pprof wrote.
curl -sSf "http://$ADDR/debug/prof/$CAPTURE_ID" -o "$TMP/capture.pb.gz"
MAGIC=$(od -An -tx1 -N2 "$TMP/capture.pb.gz" | tr -d ' ')
if [ "$MAGIC" != "1f8b" ]; then
    echo "prof-smoke: download is not gzip (magic $MAGIC)" >&2
    exit 1
fi
echo "prof-smoke: capture downloads as gzip ($(wc -c <"$TMP/capture.pb.gz") bytes)"

# A bogus capture id is a clean 404, not a crash.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/prof/999999")
if [ "$CODE" != "404" ]; then
    echo "prof-smoke: missing capture returned $CODE, want 404" >&2
    exit 1
fi

# The runtime and profiler metric families scrape.
curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for name in \
    hdfe_prof_captures_total \
    hdfe_prof_capture_failures_total \
    hdfe_prof_ring_captures \
    hdfe_prof_watchdog_firing \
    hdfe_prof_watchdog_triggers_total \
    hdfe_runtime_goroutines \
    hdfe_runtime_heap_inuse_bytes \
    hdfe_runtime_heap_goal_bytes \
    hdfe_runtime_mem_total_bytes \
    hdfe_runtime_mutex_wait_seconds_total \
    hdfe_runtime_gc_cycles_total \
    hdfe_runtime_gc_pauses_seconds_bucket \
    hdfe_runtime_sched_latencies_seconds_bucket; do
    if ! grep -q "^$name" "$TMP/metrics.txt"; then
        echo "prof-smoke: /metrics missing $name" >&2
        grep '^hdfe_prof_\|^hdfe_runtime_' "$TMP/metrics.txt" >&2 || true
        exit 1
    fi
done
if ! grep -q '^hdfe_prof_captures_total{kind="cpu"} [1-9]' "$TMP/metrics.txt"; then
    echo "prof-smoke: hdfe_prof_captures_total{kind=\"cpu\"} never incremented" >&2
    grep '^hdfe_prof_' "$TMP/metrics.txt" >&2 || true
    exit 1
fi
echo "prof-smoke: metric families OK"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "prof-smoke: OK"
