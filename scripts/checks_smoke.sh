#!/usr/bin/env bash
# Negative smoke for the machine-class perf gates (DESIGN.md §14): the
# gates must fail the *right way*. Three scenarios against real subprocess
# daemons:
#
#   1. a healthy tiny class passes with a named verdict and a clean summary
#   2. a deliberately lowered goal fails CI with the check's name and
#      measured-vs-goal values (exit 1)
#   3. a SIGKILLed check daemon mid-case fails the *check* — named, exit 1
#      — instead of crashing the harness (exit >= 2) or hanging
#
# CI runs it in the checks shard; locally: make checks-smoke
set -euo pipefail

DIR="$(mktemp -d)"
trap 'kill "${BGPID:-}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== build"
go build -o "$DIR/hdlsd" ./cmd/hdlsd
go build -o "$DIR/hdlscheck" ./cmd/hdlscheck

# mk_tree DIR FLOOR SCALE NODES writes a one-class ("smoke") one-case
# ("grid") tree: a figure-4 sweep with a cells/second floor.
mk_tree() {
  local root="$1" floor="$2" scale="$3" nodes="$4"
  mkdir -p "$root/smoke/cases/grid"
  cat >"$root/smoke/machine.json" <<EOF
{"calib_ref_mops": 700, "calib_band": 1000}
EOF
  cat >"$root/smoke/cases/grid/case.json" <<EOF
{
  "target": "sweep",
  "sweep": {"figures": [4], "nodes": [$nodes], "scale": $scale},
  "goals": {"cells_per_second_min": $floor, "error_lines_max": 0}
}
EOF
}

echo "== 1. healthy class passes with a named verdict"
mk_tree "$DIR/pass" 1 1024 2
"$DIR/hdlscheck" -dir "$DIR/pass" -class smoke -hdlsd "$DIR/hdlsd" | tee "$DIR/pass.out"
grep -q 'check smoke/grid: PASS' "$DIR/pass.out" || { echo "FAIL: no named PASS"; exit 1; }
grep -q 'hdlscheck: 1 pass, 0 fail, 0 skip' "$DIR/pass.out" || { echo "FAIL: summary is not 1 pass, 0 fail, 0 skip"; exit 1; }

echo "== 2. lowered goal fails with the check's name and measured-vs-goal"
mk_tree "$DIR/fail" 10000000 1024 2
RC=0
"$DIR/hdlscheck" -dir "$DIR/fail" -class smoke -hdlsd "$DIR/hdlsd" \
  >"$DIR/fail.out" 2>&1 || RC=$?
cat "$DIR/fail.out"
[ "$RC" = 1 ] || { echo "FAIL: lowered goal exited $RC, want 1"; exit 1; }
grep -q 'check smoke/grid: FAIL: cells_per_second .* < goal' "$DIR/fail.out" \
  || { echo "FAIL: verdict does not name check and goal"; exit 1; }

echo "== 3. SIGKILLed daemon fails the check, not the harness"
# A slow grid (large-P rows at 16x the bench workload) keeps the sweep in
# flight for several seconds, leaving a wide window to kill the daemon
# mid-case.
mk_tree "$DIR/kill" 1 4 '8, 16'
RC=0
"$DIR/hdlscheck" -dir "$DIR/kill" -class smoke -hdlsd "$DIR/hdlsd" \
  -daemon-pidfile "$DIR/pid" >"$DIR/kill.out" 2>&1 &
BGPID=$!
for i in $(seq 1 100); do
  [ -s "$DIR/pid" ] && break
  [ "$i" = 100 ] && { echo "FAIL: pidfile never appeared"; exit 1; }
  sleep 0.1
done
sleep 0.7 # let the sweep get in flight
kill -9 "$(cat "$DIR/pid")"
wait "$BGPID" || RC=$?
BGPID=""
cat "$DIR/kill.out"
[ "$RC" = 1 ] || { echo "FAIL: killed daemon exited $RC, want 1 (named check failure)"; exit 1; }
grep -q 'check smoke/grid: FAIL:.*daemon died' "$DIR/kill.out" \
  || { echo "FAIL: death not attributed to the daemon"; exit 1; }

echo "checks smoke OK"
