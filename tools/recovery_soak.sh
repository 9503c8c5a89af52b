#!/usr/bin/env bash
# Recovery drill + chaos soak for the crash-safe serving tier.
#
# Phase A — restart-recovery smoke: bfv_serve with a journal takes the
# fault_soak manifest (deterministic injected faults) plus the chaos_soak
# counters, is SIGKILLed mid-run, restarts over the same journal, and the
# clients (reconnecting under their idempotency keys) finish the batch.
# tools/journal_check.py then audits the un-compacted journal: every
# accepted job terminal exactly once, no tenant's idempotency key admitted
# twice, and exactly two records (accepted, done) per accepted job.
#
# Phase B — chaos-proxy soak: the same server behind tools/chaos_proxy.py
# (seeded torn frames, mid-frame stalls, connection drops, duplicated
# Submit frames), again SIGKILLed and restarted mid-run. The client must
# still exit 0 with every job done, and the journal audit must hold even
# though duplicated submissions were injected on the wire.
#
# Usage: recovery_soak.sh [BUILD_DIR]    (default: build)
# Artifacts left in CWD: SVC_recovery.json SVC_chaos.json
#   JOURNAL_recovery.json JOURNAL_chaos.json CHAOS_chaos.json
set -euo pipefail

BUILD=${1:-build}
BIN=$BUILD/bench
SEED=${SEED:-20260808}
SPORT=${SPORT:-21741}           # phase A server
CPORT=$((SPORT + 1))            # phase B server
PPORT=$((SPORT + 2))            # phase B chaos proxy

cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

# audit JOURNAL JOBS: journal_check.py's exactly-once audit, then two
# records per accepted job, both counts read from its summary line.
audit() {
  local out
  out=$(python3 tools/journal_check.py "$1" --expect-jobs "$2") || {
    echo "$out"; return 1; }
  echo "$out"
  local re='journal_check: ([0-9]+) record\(s\), ([0-9]+) accepted'
  [[ $out =~ $re ]] || { echo "no journal_check summary line" >&2; return 1; }
  if (( BASH_REMATCH[1] != 2 * BASH_REMATCH[2] )); then
    echo "${BASH_REMATCH[1]} records for ${BASH_REMATCH[2]} accepted jobs," \
      "want 2 per job" >&2
    return 1
  fi
}

wait_port() {
  for _ in $(seq 1 150); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
      exec 3>&- 3<&- || true
      return 0
    fi
    sleep 0.1
  done
  echo "port $1 never came up" >&2
  return 1
}

serve_a() {
  "$BIN/bfv_serve" --listen "tcp:127.0.0.1:$SPORT" \
    --tenants data/svc_tenants.conf --workers 2 --checkpoint-every 1 \
    --spool spool_recovery --report --name recovery \
    --journal journal_recovery --fsync batch --no-compact \
    --log-level info &
  SRV=$!
}

serve_b() {
  "$BIN/bfv_serve" --listen "tcp:127.0.0.1:$CPORT" \
    --tenants data/svc_tenants.conf --workers 2 --checkpoint-every 1 \
    --spool spool_chaos --report --name chaos \
    --journal journal_chaos --fsync batch --no-compact \
    --idle-timeout 60 --frame-timeout 5 --send-timeout 10 \
    --log-level info &
  SRV=$!
}

echo "=== phase A: kill -9 + restart recovery (direct tcp) ==="
rm -rf journal_recovery spool_recovery
mkdir -p spool_recovery
serve_a
wait_port "$SPORT"
"$BIN/bfv_client" --connect "tcp:127.0.0.1:$SPORT" --tenant alpha \
  data/fault_soak.manifest --quiet --retry 60 --deadline 240 \
  --idem rec-faults &
CA=$!
"$BIN/bfv_client" --connect "tcp:127.0.0.1:$SPORT" --tenant bravo \
  data/chaos_soak.manifest --quiet --retry 60 --deadline 240 \
  --idem rec-counters &
CB=$!
sleep 1.5
echo "--- kill -9 server (pid $SRV) mid-run ---"
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
sleep 0.5
serve_a
wait_port "$SPORT"
wait "$CA"; wait "$CB"
"$BIN/bfv_client" --connect "tcp:127.0.0.1:$SPORT" --tenant admin \
  --shutdown=drain --quiet
wait "$SRV"
grep -q '"jobs_error": 0' SVC_recovery.json
audit journal_recovery/journal.bin 14
cp journal_recovery/JOURNAL_recovery.json .

echo "=== phase B: chaos proxy (torn/stall/drop/dup) + kill -9 restart ==="
rm -rf journal_chaos spool_chaos
mkdir -p spool_chaos
serve_b
wait_port "$CPORT"
python3 tools/chaos_proxy.py --listen "$PPORT" --connect "127.0.0.1:$CPORT" \
  --seed "$SEED" --tear 0.05 --stall 0.10 --stall-ms 200 --drop 0.05 \
  --dup 0.40 --name chaos &
PROXY=$!
wait_port "$PPORT"
"$BIN/bfv_client" --connect "tcp:127.0.0.1:$PPORT" --tenant alpha \
  data/chaos_soak.manifest --quiet --retry 200 --deadline 240 \
  --idem chaos &
CC=$!
sleep 3
echo "--- kill -9 server (pid $SRV) mid-chaos ---"
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
sleep 0.5
serve_b
wait_port "$CPORT"
wait "$CC"
"$BIN/bfv_client" --connect "tcp:127.0.0.1:$CPORT" --tenant admin \
  --shutdown=drain --quiet
wait "$SRV"
kill -TERM "$PROXY" 2>/dev/null || true
wait "$PROXY" 2>/dev/null || true
grep -q '"jobs_error": 0' SVC_chaos.json
audit journal_chaos/journal.bin 6
cp journal_chaos/JOURNAL_chaos.json .
python3 - <<'EOF'
import json
with open("CHAOS_chaos.json") as f:
    c = json.load(f)
print("chaos counters:", c)
assert c["connections"] >= 2, "chaos proxy saw too few connections"
assert c["duplicated_submits"] >= 1, "no duplicated Submit was injected"
assert (c["torn_frames"] + c["connection_drops"] + c["mid_frame_stalls"]
        ) >= 1, "no wire fault was injected"
EOF

echo "recovery_soak: both phases passed"
