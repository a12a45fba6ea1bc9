#!/usr/bin/env bash
# Two-process wire smoke: `tfrc_sim wire receiver` and `tfrc_sim wire
# sender` run as separate processes over loopback UDP. The receiver binds
# an ephemeral port P (printed on its first line); the sender transmits to
# P for 5 s from its own ephemeral port, which the receiver learns from
# the first data frame. This is the one wire path where feedback finds
# its way back without an in-process send override.
#
# Exit status is the receiver's: 0 iff 50 data packets arrived within
# its 20 s timeout.
#
# Usage: wire_two_process.sh

set -eu
cd "$(dirname "$0")/.."

dune build bin/tfrc_sim.exe
SIM=_build/default/bin/tfrc_sim.exe
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

"$SIM" wire receiver --port 0 --packets 50 --timeout 20 > "$OUT" &
RCV=$!

PORT=
for _ in $(seq 200); do
  PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$OUT")
  [ -n "$PORT" ] && break
  sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "wire_two_process: receiver never reported its port" >&2
  kill "$RCV" 2> /dev/null || true
  exit 1
fi

"$SIM" wire sender --port "$PORT" --duration 5
STATUS=0
wait "$RCV" || STATUS=$?
cat "$OUT"
exit "$STATUS"
