#!/bin/sh
# End-to-end smoke for the fleetd/fleetctl pipeline, run by `make smoke-cmds`.
#
# Phase 1: start fleetd on dynamic ports, run one job streaming its live
# telemetry with a local-replay digest cross-check, then 64 varied jobs
# verified for same-spec digest agreement.
#
# Phase 2: attach a stalled telemetry subscriber (an HTTP stream that is
# never read), submit FLEET_JOBS hover flights (default 1024), and require
# the server to complete them all while sustaining FLEET_JOBS concurrent
# lanes — completing within the timeout is the proof that a dead subscriber
# never stalls the tick loop.
#
# Opt-in scale: FLEET_JOBS=10240 sh scripts/fleet_smoke.sh (fleetd runs
# with -lanes FLEET_JOBS).
set -eu

JOBS=${FLEET_JOBS:-1024}

WORK=$(mktemp -d)
FLEETD_PID=""
STALL_PID=""
cleanup() {
    [ -n "$STALL_PID" ] && kill "$STALL_PID" 2>/dev/null || true
    [ -n "$FLEETD_PID" ] && kill "$FLEETD_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/fleetd" ./cmd/fleetd
go build -o "$WORK/fleetctl" ./cmd/fleetctl

"$WORK/fleetd" -http 127.0.0.1:0 -addrfile "$WORK/addr" \
    -lanes "$JOBS" >"$WORK/fleetd.log" 2>&1 &
FLEETD_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "fleet_smoke: fleetd never wrote its addrfile" >&2
        cat "$WORK/fleetd.log" >&2
        exit 1
    fi
    sleep 0.1
done
. "$WORK/addr" # sets http_addr
CTL="$WORK/fleetctl -addr http://$http_addr"

echo "fleet_smoke: phase 1 — live stream + digest cross-check, then 64 jobs"
$CTL run -workload hover -seconds 30 -every 100 -seed 42 -check >/dev/null
$CTL submit -n 64 -workload hover -seconds 2 -vary 8 >/dev/null
$CTL wait -verify -timeout 120s

echo "fleet_smoke: phase 2 — $JOBS jobs with a stalled subscriber (min peak $JOBS)"
STALL_ID=$($CTL submit -workload hover -seconds 30 -seed 99)
$CTL stream -id "$STALL_ID" -stall >/dev/null &
STALL_PID=$!
sleep 0.2
$CTL submit -n "$JOBS" -workload hover -seconds 2 -vary 16 >/dev/null
$CTL wait -verify -min-peak "$JOBS" -timeout 600s

kill "$STALL_PID" 2>/dev/null || true
STALL_PID=""
$CTL shutdown
wait "$FLEETD_PID" 2>/dev/null || true
FLEETD_PID=""
echo "fleet_smoke: ok"
