#!/usr/bin/env bash
# Lint: no top-level mutable ref/counter state in lib/ outside the engine.
#
# Process-global mutable state in simulator code is a data race under
# Domain.spawn grid workers and leaks identity/statistics across jobs even
# sequentially, breaking byte-identical replay (see the per-sim packet-id
# allocator in Engine.Sim). This grep-based check fails the build when a
# top-level `ref` cell is (re)introduced in lib/.
#
# Two patterns are flagged:
#   1. a top-level binding directly to a ref:        let x = ref ...
#   2. the hidden-counter closure idiom:             let f =
#                                                      let n = ref 0 in
#                                                      fun () -> ...
# Local refs inside functions are fine and ignored.
#
# Allowlisted path prefixes (one per line, # comments) live next to this
# script in lint_global_state.allow; the engine's domain-local state
# (Trace.default) is deliberate and listed there.

set -u
cd "$(dirname "$0")/.."

allow_file="tools/lint_global_state.allow"
fail=0

allowed() {
  local f="$1"
  while IFS= read -r prefix; do
    case "$prefix" in ''|'#'*) continue ;; esac
    case "$f" in "$prefix"*) return 0 ;; esac
  done < "$allow_file"
  return 1
}

while IFS= read -r file; do
  if allowed "$file"; then continue; fi
  # Pattern 1: top-level `let x = ref ...` (column 0).
  hits=$(grep -nE '^let [^=]*= *ref\b' "$file")
  # Pattern 2: `let x =` at column 0 immediately followed by an indented
  # `let n = ref ... in` (a closure capturing a process-lifetime counter).
  # prev must be a parameterless value binding (`let name =`): a ref in
  # the body of a *function* definition is per-call state and fine.
  hits2=$(awk 'prev ~ /^let [A-Za-z_'"'"'0-9]+ =[[:space:]]*$/ && $0 ~ /^[[:space:]]+let [A-Za-z_]+ = ref .* in[[:space:]]*$/ { printf "%d:%s\n", NR, $0 } { prev = $0 }' "$file")
  if [ -n "$hits$hits2" ]; then
    fail=1
    printf '%s: top-level mutable ref state (move it into Engine.Sim or per-instance state):\n' "$file"
    [ -n "$hits" ] && printf '%s\n' "$hits"
    [ -n "$hits2" ] && printf '%s\n' "$hits2"
  fi
done < <(find lib -name '*.ml' | sort)

# Sans-IO boundary: wall clocks and sockets belong to lib/wire (the
# real-time runtime) alone. Protocol and experiment code gets time from
# Engine.Runtime / Engine.Sim, so a direct clock or socket call in any
# other library reintroduces scheduler-specific behavior the Runtime
# refactor removed. File IO (checkpoint stores, trace sinks) is fine.
while IFS= read -r file; do
  case "$file" in
    lib/wire/*) continue ;;
    # Wall-clock job metering for the supervision report — observability,
    # not protocol behavior; virtual time still comes from Sim.
    lib/exp/runner.ml) continue ;;
  esac
  hits=$(grep -nE 'Unix\.(gettimeofday|time\b|sleepf?|select|socket|recvfrom|sendto|setsockopt|bind .*ADDR_INET)' "$file")
  if [ -n "$hits" ]; then
    fail=1
    printf '%s: wall-clock/socket call outside lib/wire (use Engine.Runtime):\n' "$file"
    printf '%s\n' "$hits"
  fi
done < <(find lib -name '*.ml' | sort)

if [ "$fail" -ne 0 ]; then
  echo "lint_global_state: FAILED (see above)" >&2
  exit 1
fi
echo "lint_global_state: ok (no top-level mutable refs outside the allowlist; clocks and sockets confined to lib/wire)"
