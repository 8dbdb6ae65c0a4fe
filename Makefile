# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test verify-smoke verify-deep fault-smoke torture-smoke torture-deep chaos-smoke chaos-deep service-smoke service-deep bench-service net-smoke net-deep bench-net audit-smoke audit-deep bench-audit gold gold-smoke gold-deep regress bench-fleet ci clean

all: build

build:
	dune build

# Full tier-1 suite (includes @verify-smoke via the tests stanza).
test:
	dune runtest

# Ground-truth verification: exact pebble-game oracle sandwich grid (every
# Q_opt checked against a pinned table) + differential conformance harness.
# Smoke is the fast (<15s) configuration and also solves the 24-vertex
# Winograd tile; deep enlarges DAG grid, oracle budgets and qcheck case
# counts (minutes).
verify-smoke:
	dune build @verify-smoke

verify-deep:
	dune build @verify-deep

fault-smoke:
	dune build @fault-smoke

# Durability: checksummed-journal salvage properties + crash-torture rounds
# that corrupt the tune journal between kill and resume.  Smoke is
# the fast (<10s) configuration; deep multiplies qcheck case counts by 10
# and runs more corruption rounds.
torture-smoke:
	dune build @torture-smoke

torture-deep:
	dune build @torture-deep

# Run-level supervision chaos campaigns: GPU faults + journal corruption +
# pool crashes + finite budgets against whole-model tuning.  Smoke sweeps 4
# campaign seeds (<10s); deep sweeps 32 and raises qcheck case counts.
chaos-smoke:
	dune build @chaos-smoke

chaos-deep:
	dune build @chaos-deep

# Tuning-service gates: protocol/cache/engine suites plus scripted kill -9 +
# corruption + restart chaos campaigns, all through the in-process Sim
# harness (<5s).  Deep widens the seed sweep and adds the live-socket
# daemon smoke (spawned domain, real Unix socket, idle deadlines, drain).
service-smoke:
	dune build @service-smoke

service-deep:
	dune build @service-deep

# Cold-vs-warm cache latency, coalescing factor under a burst of identical
# requests, and corruption-recovery time; rewrites BENCH_service.json.
bench-service:
	dune exec bench/service_bench.exe

# Wire-level chaos gates: fault-plan invariants, partial-write continuation,
# byzantine-client hardening (oversized lines, slow-loris, connection
# ceiling) and live-socket chaos campaigns through a daemon kill/restart.
# Smoke runs one campaign seed plus its byte-for-byte replay (a few
# seconds); deep sweeps 16 seeds with more concurrent clients.
net-smoke:
	dune build @net-smoke

net-deep:
	dune build @net-deep

# Ask latency (p50/p99) through the resilient client against a live daemon
# at 0/10/30% injected fault rates; rewrites BENCH_net.json.
bench-net:
	dune exec bench/net_bench.exe

# Answer-integrity auditor gates: the Verify.Audit invariant suite at every
# trust boundary (cache load/hit, post-tune, client wire, gold read) plus
# the per-check / warm-hit overhead envelope and scrub throughput.  Smoke
# (<10s, part of the default runtest) measures and sanity-checks; deep
# (AUDIT_DEEP=1) raises iteration counts and audits every checked-in gold
# file against the strict policy.
audit-smoke:
	dune build @audit-smoke

audit-deep:
	dune build @audit-deep

# Audit overhead sweep; rewrites BENCH_audit.json in the cwd.
bench-audit:
	dune exec bench/audit_bench.exe

# Gold-file regression fleet: 6 CNNs x 4 simulated architectures.
# `make gold` re-records the golden per-layer results under regress/gold/
# (deterministic: two runs from a clean checkout are byte-identical) and
# seeds the shared result cache; `make regress` re-sweeps the fleet warm
# through that cache (sub-second) and diffs against gold, failing with a
# typed mismatch report on any drift.  Both rewrite BENCH_fleet.json.
# @gold-smoke (a cold 2x2 slice, part of the default runtest) and
# @gold-deep (the full fleet, cold) are the hermetic dune-side gates.
gold: build
	dune exec bin/main.exe -- gold --bench BENCH_fleet.json

regress: build
	dune exec bin/main.exe -- regress --bench BENCH_fleet.json

gold-smoke:
	dune build @gold-smoke

gold-deep:
	dune build @gold-deep

# Cross-architecture sweep bench (Figure 13 axis); rewrites BENCH_fleet.json.
bench-fleet:
	dune exec bench/fleet.exe

# The full fast gate a commit must pass: build, every test suite (the
# default runtest already folds in the @*-smoke aliases, including the
# cold gold-file slice @gold-smoke and the audit envelope @audit-smoke),
# the bench smoke checks (parallel == sequential scaling, service
# cache/coalescing, network resilience, fleet sweep, audit overhead).
ci: build
	dune runtest
	dune build @bench-smoke @service-bench-smoke @net-bench-smoke @fleet-smoke @audit-smoke

clean:
	dune clean
