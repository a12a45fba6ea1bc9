.PHONY: all check test bench bench-many-flows ratchet topo-smoke wire-smoke soak-smoke lint clean

all:
	dune build @all

# What CI should run: full build with the dev profile's warnings-as-errors,
# then the whole test suite.
check:
	dune build @check

test:
	dune runtest

# Both lints of ./dune: no top-level mutable ref/counter state in lib/
# outside the engine allowlist, and no export of lib/ without a caller
# outside its own unit (or a line in tools/unused_exports.allow). Both
# also run under `dune runtest`.
lint:
	dune build --force @@runtest

bench:
	dune exec bench/main.exe

# Full-scale scheduler scale bench; appends this run's JSON line to the
# in-repo trajectory. Commit the result with the PR.
bench-many-flows:
	dune exec bench/main.exe -- --many-flows >> BENCH_many_flows.json
	tail -n 1 BENCH_many_flows.json

# Perf ratchet (CI): rerun the scale bench at the smoke scale and fail on
# a >30% wheel-throughput regression against the last committed
# BENCH_many_flows.json entry at that scale.
ratchet:
	bash tools/bench_ratchet.sh

# Routed-WAN failure-impact smoke: static partition/re-route analysis
# must agree with the goodput the chaos layer produces (exits non-zero
# on a mismatch or an invariant violation).
topo-smoke:
	dune exec bin/tfrc_sim.exe -- topo --check
	dune exec bin/tfrc_sim.exe -- topo --dark nyc-atl --dark atl-sfo --check

# Real-UDP smoke: deterministic seeded loopback transfer, the
# sim-vs-wire decision-log differential, and a receiver and sender in
# two separate processes.
wire-smoke:
	dune exec bin/tfrc_sim.exe -- wire loopback-demo --packets 100 --seed 7
	dune exec bin/tfrc_sim.exe -- wire validate --duration 10
	bash tools/wire_two_process.sh

# Wire-mode chaos soak: seeded syscall-fault endurance runs with the
# supervised endpoint lifecycle, plus the planted-bug oracle self-test.
soak-smoke:
	dune exec bin/tfrc_sim.exe -- wire soak --cases 50 --seed 1
	dune exec bin/tfrc_sim.exe -- wire soak --cases 20 --seed 1 --mutate

clean:
	dune clean
