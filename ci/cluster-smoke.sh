#!/usr/bin/env bash
# End-to-end smoke test of apartd cluster mode: three real daemon
# processes mesh over the cluster RPC plane (manual tick mode) and must
# compute byte-identical placements to a one-shard single-process
# daemon (-parallel 1) on the same seed and stream: placements do not
# depend on the shard count, across processes either. Then one shard is
# SIGTERMed, restarted from a deliberately stale checkpoint, and must
# replay the missed rounds from its peers' journals back to identical
# state before live ticks resume for everyone. CI runs this on every
# push/PR (the "cluster smoke" job); it needs only bash, curl and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

HTTP0=${HTTP0:-127.0.0.1:19290}
HTTP1=${HTTP1:-127.0.0.1:19291}
HTTP2=${HTTP2:-127.0.0.1:19292}
HTTPR=${HTTPR:-127.0.0.1:19293}
CL0=127.0.0.1:19300
CL1=127.0.0.1:19301
CL2=127.0.0.1:19302
PEERS="$CL0,$CL1,$CL2"
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK" 2>/dev/null || true
}
trap cleanup EXIT

SNAP="$WORK/shard2.snap"
N=120 # ring size; k=4 keeps per-pair quotas non-zero so vertices migrate

go build -o "$WORK/apartd" ./cmd/apartd

start_shard() { # id http_addr cluster_addr extra...
  local id=$1 http=$2 cl=$3
  shift 3
  "$WORK/apartd" -addr "$http" -k 4 -seed 7 -tick 0 \
    -cluster-addr "$cl" -peers "$PEERS" -shard-id "$id" -shards 3 \
    -drain-ticks 0 "$@" >>"$WORK/shard$id.log" 2>&1 &
  PIDS+=($!)
}

wait_healthy() {
  local addr=$1
  for _ in $(seq 1 200); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "daemon on $addr did not become healthy" >&2
  cat "$WORK"/*.log >&2 || true
  return 1
}

post_batch() { # addr lo hi
  local addr=$1 lo=$2 hi=$3 muts="" v w
  for v in $(seq "$lo" "$((hi - 1))"); do
    w=$(((v + 1) % N))
    muts+="{\"op\":\"add-edge\",\"u\":$v,\"v\":$w},"
  done
  muts+="{\"op\":\"add-edge\",\"u\":$lo,\"v\":$(((lo + N / 2) % N))}"
  curl -fsS -X POST "http://$addr/v1/mutations" \
    -H 'Content-Type: application/json' \
    -d "{\"mutations\":[$muts]}" >/dev/null
}

# One global tick: all live shards concurrently (cluster rounds are
# barriers) plus the single-process reference. Prints shard 0's result.
tick_round() {
  curl -fsS --max-time 30 -X POST "http://$HTTP0/v1/tick" -o "$WORK/tick0.json" &
  local c0=$!
  curl -fsS --max-time 30 -X POST "http://$HTTP1/v1/tick" -o /dev/null &
  local c1=$!
  curl -fsS --max-time 30 -X POST "http://$HTTP2/v1/tick" -o /dev/null &
  local c2=$!
  wait "$c0" "$c1" "$c2"
  curl -fsS --max-time 30 -X POST "http://$HTTPR/v1/tick" >/dev/null
  cat "$WORK/tick0.json"
}

tick_until_quiescent() {
  for _ in $(seq 1 60); do
    local res
    res=$(tick_round)
    if [ "$(jq -r .converged <<<"$res")" = true ] &&
      [ "$(jq -r .more_pending <<<"$res")" = false ]; then return 0; fi
  done
  echo "cluster did not converge; last tick: $res" >&2
  return 1
}

dump_placements() { # addr out
  local addr=$1 out=$2 v
  : >"$out"
  for v in $(seq 0 $((N - 1))); do
    curl -fsS "http://$addr/v1/placement/$v" | jq -c '{vertex, partition}' >>"$out"
  done
}

# post_chords adds fresh (v, v+17 mod N) edges — new topology, so the
# ticks that absorb them run real step rounds, not just the batch round.
post_chords() { # addr lo hi
  local addr=$1 lo=$2 hi=$3 muts="" v
  for v in $(seq "$lo" "$((hi - 1))"); do
    muts+="{\"op\":\"add-edge\",\"u\":$v,\"v\":$(((v + 17) % N))},"
  done
  curl -fsS -X POST "http://$addr/v1/mutations" \
    -H 'Content-Type: application/json' \
    -d "{\"mutations\":[${muts%,}]}" >/dev/null
}

rounds_of() { curl -fsS "http://$1/v1/stats" | jq -r .cluster.rounds; }

echo "== start 3-shard cluster + single-process reference"
start_shard 0 "$HTTP0" "$CL0"
start_shard 1 "$HTTP1" "$CL1"
start_shard 2 "$HTTP2" "$CL2" -checkpoint "$SNAP"
"$WORK/apartd" -addr "$HTTPR" -k 4 -seed 7 -tick 0 -parallel 1 \
  >"$WORK/ref.log" 2>&1 &
PIDS+=($!)
for a in "$HTTP0" "$HTTP1" "$HTTP2" "$HTTPR"; do wait_healthy "$a"; done

echo "== stream ring, tick to convergence"
post_batch "$HTTP0" 0 "$N"
post_batch "$HTTPR" 0 "$N"
tick_until_quiescent

echo "== diff all shards against the single-process reference"
dump_placements "$HTTPR" "$WORK/ref.jsonl"
for i in 0 1 2; do
  addr_var="HTTP$i"
  dump_placements "${!addr_var}" "$WORK/shard$i.jsonl"
  if ! diff -u "$WORK/ref.jsonl" "$WORK/shard$i.jsonl" >&2; then
    echo "shard $i placements diverge from single-process reference" >&2
    exit 1
  fi
done
HASH0=$(curl -fsS "http://$HTTP0/v1/stats" | jq -r .cluster.state_hash)
for i in 1 2; do
  addr_var="HTTP$i"
  h=$(curl -fsS "http://${!addr_var}/v1/stats" | jq -r .cluster.state_hash)
  if [ "$h" != "$HASH0" ]; then
    echo "shard $i state hash $h != shard 0 $HASH0" >&2
    exit 1
  fi
done

echo "== checkpoint shard 2, keep a stale copy, then keep mutating"
curl -fsS -X POST "http://$HTTP2/v1/checkpoint" | jq . >&2
cp "$SNAP" "$SNAP.stale"
post_chords "$HTTP0" 0 $((N / 3))
post_chords "$HTTPR" 0 $((N / 3))
tick_until_quiescent

echo "== SIGTERM shard 2; survivors keep serving reads"
kill -TERM "${PIDS[2]}"
wait "${PIDS[2]}" || { echo "shard 2 exited non-zero" >&2; cat "$WORK/shard2.log" >&2; exit 1; }
curl -fsS "http://$HTTP0/v1/placement/1" >/dev/null
curl -fsS "http://$HTTP1/v1/placement/1" >/dev/null

echo "== restart shard 2 from the STALE checkpoint; journal replay must catch it up"
start_shard 2 "$HTTP2" "$CL2" -checkpoint "$SNAP" -restore "$SNAP.stale"
wait_healthy "$HTTP2"
TARGET=$(rounds_of "$HTTP0")
for _ in $(seq 1 100); do
  [ "$(rounds_of "$HTTP2")" = "$TARGET" ] && break
  curl -fsS --max-time 60 -X POST "http://$HTTP2/v1/tick" >/dev/null
done
if [ "$(rounds_of "$HTTP2")" != "$TARGET" ]; then
  echo "restarted shard stuck at round $(rounds_of "$HTTP2"), cluster at $TARGET" >&2
  exit 1
fi
REPLAYED=$(curl -fsS "http://$HTTP2/metrics" | awk '/^apartd_cluster_replayed_rounds_total/{print $2}')
if [ "${REPLAYED:-0}" = 0 ]; then
  echo "restarted shard replayed no rounds — the journal path never ran" >&2
  exit 1
fi
dump_placements "$HTTP2" "$WORK/shard2-reborn.jsonl"
dump_placements "$HTTP0" "$WORK/shard0-now.jsonl"
if ! diff -u "$WORK/shard0-now.jsonl" "$WORK/shard2-reborn.jsonl" >&2; then
  echo "restarted shard diverges from survivors after replay" >&2
  exit 1
fi

echo "== re-converge live: one more batch through all three shards"
post_chords "$HTTP1" $((N / 3)) $((2 * N / 3))
post_chords "$HTTPR" $((N / 3)) $((2 * N / 3))
tick_until_quiescent
dump_placements "$HTTPR" "$WORK/ref-final.jsonl"
for i in 0 1 2; do
  addr_var="HTTP$i"
  dump_placements "${!addr_var}" "$WORK/final$i.jsonl"
  if ! diff -u "$WORK/ref-final.jsonl" "$WORK/final$i.jsonl" >&2; then
    echo "shard $i diverges from reference after rejoin" >&2
    exit 1
  fi
done

echo "cluster smoke OK: 3 shards byte-identical to single-process, rejoin replayed $REPLAYED rounds"
