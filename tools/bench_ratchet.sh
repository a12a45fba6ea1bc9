#!/usr/bin/env bash
# Perf ratchet for the many-flows scheduler scale benchmark.
#
# Runs the many-flows bench (bench/main.exe) at a given scale, fails when
# its line reports another scale, and compares its wheel_events_per_s
# against the most recent committed entry in BENCH_many_flows.json with
# the same "flows" count. Fails (exit 1) when
# throughput drops below RATCHET_FRACTION of that baseline — a committed
# regression has to be deliberate: either fix it or re-baseline by
# appending the new line (make bench-many-flows) in the same PR.
#
# With no matching-scale baseline the check warns and passes, so new
# scales can be introduced without a chicken-and-egg failure.
#
# Usage: bench_ratchet.sh [FLOWS] [WALL_SECONDS]
#   FLOWS defaults to 2000 (the CI smoke scale; full scale is 100000 via
#   `make bench-many-flows`), WALL_SECONDS to 0.5.

set -euo pipefail
cd "$(dirname "$0")/.."

FLOWS="${1:-2000}"
WALL="${2:-0.5}"
BASELINE_FILE="BENCH_many_flows.json"
# Generous on purpose: shared CI runners jitter by tens of percent; the
# ratchet is for order-of-magnitude regressions (an accidental O(n log n)
# in the hot path), not micro-noise.
RATCHET_FRACTION="${RATCHET_FRACTION:-0.7}"

FRESH_LINE=$(dune exec bench/main.exe -- --flows "$FLOWS" --wall "$WALL" | tail -n 1)
export FRESH_LINE
echo "fresh:    $FRESH_LINE"

python3 - "$FLOWS" "$BASELINE_FILE" "$RATCHET_FRACTION" <<'EOF'
import json, os, sys

flows, path, fraction = int(sys.argv[1]), sys.argv[2], float(sys.argv[3])
fresh = json.loads(os.environ["FRESH_LINE"])
if fresh.get("bench") != "many_flows" or fresh.get("flows") != flows:
    print(f"ratchet: FAILED -- asked for many_flows at flows={flows}, "
          f"the bench reported {fresh.get('bench')} at flows={fresh.get('flows')}",
          file=sys.stderr)
    sys.exit(1)

baseline = None
try:
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if entry.get("bench") == "many_flows" and entry.get("flows") == flows:
                baseline = entry  # keep the last match: most recently committed
except FileNotFoundError:
    pass

if baseline is None:
    print(f"ratchet: no committed baseline for flows={flows} in {path}; "
          f"passing (append one with: make bench-many-flows)")
    sys.exit(0)

base_eps = float(baseline["wheel_events_per_s"])
fresh_eps = float(fresh["wheel_events_per_s"])
floor = fraction * base_eps
print(f"baseline: flows={flows} wheel_events_per_s={base_eps:.0f}")
print(f"ratchet:  fresh {fresh_eps:.0f} vs floor {floor:.0f} "
      f"({fraction:.0%} of baseline)")
if fresh_eps < floor:
    print(f"ratchet: FAILED -- wheel throughput regressed more than "
          f"{1 - fraction:.0%} below the committed baseline", file=sys.stderr)
    sys.exit(1)
print("ratchet: ok")
EOF
