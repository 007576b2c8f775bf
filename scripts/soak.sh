#!/bin/sh
# Soak: boots a serve instance and drives it with cmd/loadtest in two
# phases. loadtest fails a phase on any 5xx or transport error and on a
# p99 over a deliberately generous bound (this is a smoke on shared CI
# runners, not a latency SLO).
#
#  1. Single-request estimates (90% cache hits) mixed with sparse probe
#     vector uploads of one suite program. loadtest also fails unless
#     every input was uploaded and the live aggregate's decision
#     agreement converges to the offline eval values (-tol); this
#     script fails on fewer than SOAK_MIN_UPLOADS uploads.
#  2. The batch path, 8 items per request against the now-warm cache (a
#     different seed adds fresh cold compiles to the mix).
#
# After the load, /metrics is scraped and the run fails if any expected
# metric family (per-endpoint latency histograms, shed/reject counters,
# runtime gauges) is missing or any exposition line is unparseable.
# The server is then stopped with SIGTERM and must exit cleanly, so the
# drain path runs too.
#
#   scripts/soak.sh                      # ~20s of load
#   SOAK_DURATION=60s SOAK_RPS=200 SOAK_PROGRAM=eqntott scripts/soak.sh
set -eu
cd "$(dirname "$0")/.."

addr=${SOAK_ADDR:-localhost:8098}
duration=${SOAK_DURATION:-10s}
rps=${SOAK_RPS:-80}
max_p99=${SOAK_MAX_P99:-5s}
program=${SOAK_PROGRAM:-compress}
min_uploads=${SOAK_MIN_UPLOADS:-200}

bin=$(mktemp -d)
serve_pid=""
cleanup() {
	[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/serve" ./cmd/serve
go build -o "$bin/loadtest" ./cmd/loadtest

"$bin/serve" -addr "$addr" &
serve_pid=$!

ok=""
for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "soak: serve never became healthy on $addr" >&2; exit 1; }

# Phase 1: estimates and uploads, half and half.
"$bin/loadtest" -addr "$addr" -duration "$duration" -rps "$rps" -hit 0.9 -j 4 \
	-max-p99 "$max_p99" -ingest 0.5 -program "$program" -tol 0.01 >"$bin/phase1" ||
	{ cat "$bin/phase1"; exit 1; }
cat "$bin/phase1"
uploads=$(awk '/ uploads of / { print $2 }' "$bin/phase1")
[ "${uploads:-0}" -ge "$min_uploads" ] || {
	echo "soak: ${uploads:-0} uploads, want at least $min_uploads" >&2
	exit 1
}

# Phase 2: the batch path.
"$bin/loadtest" -addr "$addr" -duration "$duration" -rps 10 \
	-hit 0.8 -batch 8 -j 2 -seed 2 -max-p99 "$max_p99"

echo "soak: final health: $(curl -s "http://$addr/healthz")" >&2

# Every family the ops surface promises must be present after real
# traffic, and every non-comment line must parse as "<series> <value>".
curl -sf "http://$addr/metrics" >"$bin/metrics" || {
	echo "soak: /metrics scrape failed" >&2
	exit 1
}
for family in \
	'# TYPE server_request_seconds histogram' \
	'server_request_seconds_bucket{endpoint="ingest",le="+Inf"}' \
	'server_request_seconds_count{endpoint="ingest"}' \
	'server_request_seconds_count{endpoint="estimate"}' \
	'server_request_seconds_count{endpoint="batch"}' \
	'server_responses_total{endpoint="ingest",class="2xx"}' \
	'# TYPE server_compile_seconds histogram' \
	'# TYPE server_cache_hit_seconds histogram' \
	'server_shed_total' \
	'ingest_uploads_total' \
	'ingest_rejects_total{reason="duplicate"}' \
	'runtime_goroutines' \
	'runtime_heap_alloc_bytes' \
	'runtime_gc_pause_seconds_total' \
	; do
	grep -qF "$family" "$bin/metrics" || {
		echo "soak: /metrics missing expected family: $family" >&2
		exit 1
	}
done
bad=$(grep -v '^#' "$bin/metrics" | awk 'NF != 0 && NF != 2 { print; exit }')
[ -z "$bad" ] || { echo "soak: unparseable /metrics line: $bad" >&2; exit 1; }
echo "soak: /metrics families OK ($(grep -c '^# TYPE' "$bin/metrics") families)" >&2

# Graceful drain: SIGTERM must exit cleanly.
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "soak: OK ($uploads uploads, clean drain)" >&2
