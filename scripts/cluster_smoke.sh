#!/usr/bin/env bash
# cluster-smoke: end-to-end failure drill for the distributed hub.
#
# Builds dlv and modelhub-server, boots three storage nodes plus a stateless
# gateway (all with -metrics), publishes a repository through the gateway,
# and asserts it replicated to every node. Then the drill: kill one replica,
# pull through the gateway (must succeed from the survivors, digest-verified
# by the client), restart the dead node on its old data dir, trigger one
# anti-entropy sweep via POST /api/repair, and assert the sweep repaired the
# missing copy and the node's metrics and inventory show full convergence.
# Run via `make cluster-smoke`.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

cd "$ROOT"
go build -o "$TMP/dlv" ./cmd/dlv
go build -o "$TMP/modelhub-server" ./cmd/modelhub-server

BASE_PORT="${CLUSTER_SMOKE_PORT:-18571}"
P1="127.0.0.1:$BASE_PORT"
P2="127.0.0.1:$((BASE_PORT + 1))"
P3="127.0.0.1:$((BASE_PORT + 2))"
GW="127.0.0.1:$((BASE_PORT + 3))"
PEERS="http://$P1,http://$P2,http://$P3"

wait_ready() { # addr logfile
  for _ in $(seq 1 50); do
    if curl -fsS "http://$1/api/search?q=" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "cluster-smoke: $1 did not start; log follows" >&2
  cat "$2" >&2
  exit 1
}

start_node() { # index addr
  local i="$1" addr="$2"
  # Background repair is disabled; the drill triggers sweeps explicitly so
  # convergence is asserted, not raced.
  "$TMP/modelhub-server" -addr "$addr" -data "$TMP/node$i" -metrics -log-level info \
    -peers "$PEERS" -self "http://$addr" -repair-interval=-1s \
    2>>"$TMP/node$i.log" &
  PIDS[i]=$!
}

start_node 1 "$P1"
start_node 2 "$P2"
start_node 3 "$P3"
"$TMP/modelhub-server" -addr "$GW" -gateway -metrics -log-level info -peers "$PEERS" \
  2>"$TMP/gateway.log" &
PIDS[4]=$!
wait_ready "$P1" "$TMP/node1.log"
wait_ready "$P2" "$TMP/node2.log"
wait_ready "$P3" "$TMP/node3.log"
wait_ready "$GW" "$TMP/gateway.log"

# A tiny repository with one trained model, published through the gateway.
REPO="$TMP/repo"
mkdir -p "$REPO"
"$TMP/dlv" init -repo "$REPO" >/dev/null
"$TMP/dlv" train -repo "$REPO" -name smoke-lenet -epochs 1 -checkpoint-every 0 >/dev/null
"$TMP/dlv" publish -repo "$REPO" -remote "http://$GW" -name cluster-repo >/dev/null

# Replication is synchronous with the publish: every node answers the pull
# locally (default replication factor 3 over 3 nodes).
for addr in "$P1" "$P2" "$P3"; do
  curl -fsS "http://$addr/api/inventory" | jq -e \
    '[.[] | select(.name == "cluster-repo")] | length == 1' >/dev/null || {
    echo "cluster-smoke: node $addr missing the replica after publish" >&2
    exit 1
  }
done
DIGEST="$(curl -fsS "http://$P1/api/inventory" | jq -r '.[] | select(.name == "cluster-repo") | .sha256')"

# Drill step 1: kill one replica outright (no drain).
kill -9 "${PIDS[2]}" 2>/dev/null
wait "${PIDS[2]}" 2>/dev/null || true
PIDS[2]=""

# Drill step 2: the pull through the gateway must succeed from the
# survivors, and the client digest-verifies the archive end to end.
"$TMP/dlv" pull -remote "http://$GW" -name cluster-repo -dest "$TMP/pulled" >/dev/null
"$TMP/dlv" list -repo "$TMP/pulled" | grep -q smoke-lenet || {
  echo "cluster-smoke: pull with a dead replica lost the model" >&2
  exit 1
}
curl -fsS "http://$GW/metrics" | jq -e '."hub.cluster.gateway.pull.routed" >= 1' >/dev/null || {
  echo "cluster-smoke: gateway did not count the routed pull" >&2
  exit 1
}

# A publish during the outage must also succeed (replication degrades
# softly to the live owners).
"$TMP/dlv" publish -repo "$REPO" -remote "http://$GW" -name outage-repo >/dev/null

# Drill step 3: restart the dead node on its old data dir and trigger one
# anti-entropy sweep. The sweep must fetch the missing replica back.
start_node 2 "$P2"
wait_ready "$P2" "$TMP/node2.log"
REPAIR="$(curl -fsS -X POST "http://$P2/api/repair")"
echo "$REPAIR" | jq -e '.repaired >= 1 and .failed == 0' >/dev/null || {
  echo "cluster-smoke: repair did not converge: $REPAIR" >&2
  exit 1
}

# Convergence: the restarted node advertises the same digest as the rest,
# for the original repo and the one published during its outage.
for name in cluster-repo outage-repo; do
  want="$(curl -fsS "http://$P1/api/inventory" | jq -r --arg n "$name" '.[] | select(.name == $n) | .sha256')"
  got="$(curl -fsS "http://$P2/api/inventory" | jq -r --arg n "$name" '.[] | select(.name == $n) | .sha256')"
  if [ -z "$want" ] || [ "$want" != "$got" ]; then
    echo "cluster-smoke: $name digests diverge after repair (want '$want', got '$got')" >&2
    exit 1
  fi
done
[ "$(curl -fsS "http://$P2/api/inventory" | jq -r '.[] | select(.name == "cluster-repo") | .sha256')" = "$DIGEST" ] || {
  echo "cluster-smoke: repaired digest differs from the originally published one" >&2
  exit 1
}
curl -fsS "http://$P2/metrics" | jq -e \
  '."hub.cluster.repair.sweeps" >= 1 and ."hub.cluster.repair.repaired" >= 1' >/dev/null || {
  echo "cluster-smoke: repair metrics missing on the restarted node" >&2
  exit 1
}

# And a pull straight from the repaired node works.
"$TMP/dlv" pull -remote "http://$P2" -name cluster-repo -dest "$TMP/pulled2" >/dev/null
"$TMP/dlv" list -repo "$TMP/pulled2" | grep -q smoke-lenet || {
  echo "cluster-smoke: repaired node serves a broken repository" >&2
  exit 1
}

echo "cluster-smoke: OK (publish replicated 3-way, survived a kill, repair reconverged)"
