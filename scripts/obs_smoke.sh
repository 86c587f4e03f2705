#!/usr/bin/env bash
# obs-smoke: end-to-end check of the observability surface.
#
# Builds dlv and modelhub-server, trains + archives a tiny model, starts the
# server with -metrics, drives one publish and one pull through the real
# HTTP API, then scrapes /metrics and asserts the payload is well-formed
# JSON with nonzero hub.http.*, hub.transfer.* and pas.* counters, and that
# /debug/pprof/ is reachable. It then exercises the transfer-path hardening:
# the server is SIGTERMed (must drain and exit 0), restarted on the same
# data dir with -flaky-pull-cut so every full-archive pull is severed
# mid-stream, and a second pull must transparently resume via Range and
# land a working repository. Run via `make obs-smoke`.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
SRV_PID=""
cleanup() {
  if [ -n "$SRV_PID" ]; then kill "$SRV_PID" 2>/dev/null || true; fi
  rm -rf "$TMP"
}
trap cleanup EXIT

cd "$ROOT"
go build -o "$TMP/dlv" ./cmd/dlv
go build -o "$TMP/modelhub-server" ./cmd/modelhub-server

# A tiny repository with one trained, archived model version.
REPO="$TMP/repo"
mkdir -p "$REPO"
"$TMP/dlv" init -repo "$REPO" >/dev/null
"$TMP/dlv" train -repo "$REPO" -name smoke-lenet -epochs 1 -checkpoint-every 0 >/dev/null
"$TMP/dlv" archive -repo "$REPO" >/dev/null

ADDR="127.0.0.1:${OBS_SMOKE_PORT:-18477}"
"$TMP/modelhub-server" -addr "$ADDR" -data "$TMP/hub-data" -metrics -log-level info 2>"$TMP/server.log" &
SRV_PID=$!

ready=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/api/search?q=" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.2
done
if [ "$ready" != 1 ]; then
  echo "obs-smoke: server did not start; log follows" >&2
  cat "$TMP/server.log" >&2
  exit 1
fi

# One publish + one pull, both traced (-trace is a global flag, so it goes
# before the subcommand): the publish-side archive probe drives the PAS
# concurrent engine inside the server process, and each client exports its
# half of the trace to the server's flight recorder.
"$TMP/dlv" -trace publish -repo "$REPO" -remote "http://$ADDR" -name smoke-repo >/dev/null
"$TMP/dlv" -trace pull -remote "http://$ADDR" -name smoke-repo -dest "$TMP/pulled" >/dev/null

METRICS="$TMP/metrics.json"
curl -fsS "http://$ADDR/metrics" >"$METRICS"
jq empty "$METRICS" # fails on malformed JSON

check_nonzero() {
  v="$(jq -r --arg k "$1" '.[$k] // 0' "$METRICS")"
  case "$v" in
  "" | 0 | null)
    echo "obs-smoke: metric $1 is zero or missing" >&2
    exit 1
    ;;
  esac
}
check_nonzero "hub.http.requests"
check_nonzero "hub.http.response_bytes"
check_nonzero "hub.http.status_2xx"
check_nonzero "pas.plane_cache.misses"
check_nonzero "pas.chunk.reads"
check_nonzero "pas.retrieval.snapshots.concurrent"
jq -e '."hub.http.request_seconds".count >= 2' "$METRICS" >/dev/null
jq -e '."hub.transfer.publish.bytes".count >= 1' "$METRICS" >/dev/null
jq -e '."hub.transfer.pull.bytes".count >= 1' "$METRICS" >/dev/null

curl -fsS "http://$ADDR/debug/pprof/" >/dev/null

# Distributed tracing: the traced pull must have landed ONE trace in the
# server's flight recorder whose spans come from both processes — the dlv
# client's pull spans and the server's request span under one trace ID.
TRACES="$TMP/traces.json"
curl -fsS "http://$ADDR/debug/traces" >"$TRACES"
jq empty "$TRACES"
jq -e '[.traces[]
        | select(.root == "hub.client.pull"
                 and .spans >= 3
                 and (.services | index("dlv"))
                 and (.services | index("modelhub-server")))]
       | length >= 1' "$TRACES" >/dev/null || {
  echo "obs-smoke: no cross-process hub.client.pull trace at /debug/traces; payload follows" >&2
  cat "$TRACES" >&2
  exit 1
}
# The waterfall CLI renders the newest trace and shows both halves.
"$TMP/dlv" trace -remote "http://$ADDR" last >"$TMP/waterfall.txt"
grep -q "hub.client.pull" "$TMP/waterfall.txt" || {
  echo "obs-smoke: dlv trace output has no client span; output follows" >&2
  cat "$TMP/waterfall.txt" >&2
  exit 1
}
grep -q "hub.http.request" "$TMP/waterfall.txt" || {
  echo "obs-smoke: dlv trace output has no server span; output follows" >&2
  cat "$TMP/waterfall.txt" >&2
  exit 1
}
# Log correlation: traced server requests stamp trace_id into slog lines.
grep -q "trace_id=" "$TMP/server.log" || {
  echo "obs-smoke: server log has no trace_id-stamped lines" >&2
  exit 1
}

# Graceful shutdown: SIGTERM must drain in-flight work and exit 0.
kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
  echo "obs-smoke: server did not exit cleanly on SIGTERM; log follows" >&2
  cat "$TMP/server.log" >&2
  exit 1
fi
SRV_PID=""
grep -q "shutdown complete" "$TMP/server.log" || {
  echo "obs-smoke: no graceful-shutdown log line" >&2
  exit 1
}

# Kill-mid-pull resume: restart on the same data dir with fault injection
# that severs every full-archive pull after 512 bytes. The client must
# resume via Range and still land a repository that lists its model.
"$TMP/modelhub-server" -addr "$ADDR" -data "$TMP/hub-data" -metrics -log-level info \
  -flaky-pull-cut 512 2>"$TMP/server2.log" &
SRV_PID=$!
ready=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/api/search?q=" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.2
done
if [ "$ready" != 1 ]; then
  echo "obs-smoke: flaky server did not start; log follows" >&2
  cat "$TMP/server2.log" >&2
  exit 1
fi

"$TMP/dlv" pull -remote "http://$ADDR" -name smoke-repo -dest "$TMP/pulled2" >/dev/null
"$TMP/dlv" list -repo "$TMP/pulled2" | grep -q smoke-lenet || {
  echo "obs-smoke: resumed pull produced a repository without the model" >&2
  exit 1
}

curl -fsS "http://$ADDR/metrics" >"$METRICS"
jq -e '."hub.transfer.pull.resumed_requests" >= 1' "$METRICS" >/dev/null || {
  echo "obs-smoke: pull completed but no resumed Range request was counted" >&2
  exit 1
}

kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
SRV_PID=""

echo "obs-smoke: OK ($(jq length "$METRICS") metrics exported; mid-stream cut pull resumed)"
