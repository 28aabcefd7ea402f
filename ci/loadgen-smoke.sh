#!/usr/bin/env bash
# End-to-end smoke test of the load-generation harness against a live
# daemon: build apartd + gengraph + loadgen, stream a generated graph
# through BOTH ingest planes (JSON and binary) with a concurrent read
# mix and a watch stream, and require a clean report each time — every
# offered mutation accepted, zero hard errors, zero read errors, and the
# ingest queue fully drained — and the daemon's own /v1/stats and
# /metrics must count every mutation of both replays. CI runs this on every push/PR (the
# "loadgen smoke" job); the nightly workflow runs the same harness at
# 1M-vertex scale. Needs only bash and jq beyond the Go toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18293}
BINADDR=${BINADDR:-127.0.0.1:18294}
WORK=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/apartd" ./cmd/apartd
go build -o "$WORK/gengraph" ./cmd/gengraph
go build -o "$WORK/loadgen" ./cmd/loadgen

echo "== generate stream"
"$WORK/gengraph" -ba 20000:3 -stream -seed 7 -out "$WORK/ba.edges"
EDGES=$(grep -vc '^#' "$WORK/ba.edges")

echo "== start daemon (both planes, workload term active)"
"$WORK/apartd" -addr "$ADDR" -binary-addr "$BINADDR" -k 4 -seed 7 -tick 20ms \
  -workload-weight 4 -heat-sample 1 \
  >"$WORK/apartd.log" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

check_report() {
  local mode=$1 report=$2
  local offered accepted errors read_errors drained
  offered=$(jq -r .mutations_offered "$report")
  accepted=$(jq -r .mutations_accepted "$report")
  errors=$(jq -r '.errors + .read_errors' "$report")
  drained=$(jq -r .drained "$report")
  if [ "$offered" != "$EDGES" ] || [ "$accepted" != "$EDGES" ] \
    || [ "$errors" != 0 ] || [ "$drained" != true ]; then
    echo "$mode report violates the smoke contract:" >&2
    cat "$report" >&2
    return 1
  fi
  echo "$mode OK: $(jq -r '.mutations_per_sec | floor' "$report") mut/s," \
    "read p99 $(jq -r .read_p99_ms "$report") ms"
}

echo "== replay over the JSON plane (with read mix + watch)"
"$WORK/loadgen" -mode json -target "http://$ADDR" -in "$WORK/ba.edges" \
  -batch 2048 -conns 4 -read-qps 500 -read-batch 16 -watch 1 \
  -drain-wait 2m -quiet >"$WORK/json.report"
check_report json "$WORK/json.report"

echo "== replay over the binary plane (with read mix + watch)"
"$WORK/loadgen" -mode binary -binary-target "$BINADDR" -target "http://$ADDR" \
  -in "$WORK/ba.edges" -batch 2048 -conns 4 -read-qps 500 -watch 1 \
  -drain-wait 2m -quiet >"$WORK/binary.report"
check_report binary "$WORK/binary.report"

echo "== zipf flash-crowd read mix (read-only, shifting hotset)"
"$WORK/loadgen" -target "http://$ADDR" -read-only -read-max-id 19999 \
  -read-qps 2000 -read-batch 32 -read-zipf 1.2 -hotset-shift-every 2s \
  -duration 5s -quiet >"$WORK/zipf.report"
ZIPF=$(jq -r .read_zipf "$WORK/zipf.report")
ZREADS=$(jq -r .reads "$WORK/zipf.report")
ZERRS=$(jq -r .read_errors "$WORK/zipf.report")
ZSHIFTS=$(jq -r .hotset_shifts "$WORK/zipf.report")
if [ "$ZIPF" != 1.2 ] || [ "$ZREADS" -le 0 ] || [ "$ZERRS" != 0 ] \
  || [ "$ZSHIFTS" -lt 1 ]; then
  echo "zipf report violates the smoke contract:" >&2
  cat "$WORK/zipf.report" >&2
  exit 1
fi
echo "zipf OK: $ZREADS skewed reads, $ZSHIFTS hotset shift(s), zero errors"

echo "== heat pipeline saw the skewed reads"
STATS=$(curl -fsS "http://$ADDR/v1/stats")
if [ "$(jq -r .heat_recording <<<"$STATS")" != true ] \
  || [ "$(jq -r .heat_samples <<<"$STATS")" -le 0 ] \
  || [ "$(jq -r .heat_folds <<<"$STATS")" -le 0 ]; then
  echo "heat stats disagree with the skewed read mix: $STATS" >&2
  exit 1
fi
echo "heat OK: $(jq -r .heat_samples <<<"$STATS") samples," \
  "$(jq -r .heat_folds <<<"$STATS") folds," \
  "$(jq -r .heat_hot_vertices <<<"$STATS") hot vertices"

echo "== daemon absorbed both replays"
STATS=$(curl -fsS "http://$ADDR/v1/stats")
INGESTED=$(jq -r .mutations_ingested <<<"$STATS")
PENDING=$(jq -r .mutations_pending <<<"$STATS")
if [ "$INGESTED" != $((2 * EDGES)) ] || [ "$PENDING" != 0 ]; then
  echo "daemon stats disagree with the reports: $STATS" >&2
  exit 1
fi
METRICS=$(curl -fsS "http://$ADDR/metrics")
metric() { awk -v name="$1" '$1 == name { print $2 }' <<<"$METRICS"; }
if [ "$(metric apartd_mutations_ingested_total)" != $((2 * EDGES)) ] \
  || [ "$(metric apartd_ingest_pending)" != 0 ]; then
  echo "daemon metrics disagree with the reports (want $((2 * EDGES)) ingested, 0 pending):" >&2
  grep -E '^apartd_(mutations_ingested_total|ingest_pending) ' <<<"$METRICS" >&2
  exit 1
fi
grep -E '^apartd_(binary_frames_total|ingest_rejected_total|watch_dropped_total)' <<<"$METRICS" >&2

kill -TERM "$PID"
wait "$PID" || true
PID=""
echo "loadgen smoke OK: $EDGES mutations through each plane, clean reports"
