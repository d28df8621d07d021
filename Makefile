.PHONY: all build test test-times check fuzz fuzz-quick bench bench-quick metrics micro perf perf-quick perf-scale perf-scale-smoke alloc-gate bench-pairs golden-bits loadgen loadgen-quick chaos-quick serve-smoke failures-smoke examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Every suite once (dune runtest --force), then each alcotest suite's
# wall time, slowest first (scripts/test_times.sh); exits with dune's
# status.
test-times:
	sh scripts/test_times.sh

# Full gate: everything compiles and every suite passes.
check:
	dune build @all && dune runtest

# Differential fuzzing: replay the committed corpus, then fresh seeded
# instances through every solver route with certificate validation
# (lib/check). Non-zero exit on any certificate failure; the failing
# instance's seed is printed and can be pinned in test/corpus/.
fuzz:
	dune exec -- topobench check --instances 500 --seed 42 --corpus test/corpus
	dune exec -- topobench check --subject warm_vs_cold --instances 100 --seed 42

fuzz-quick:
	dune exec -- topobench check --instances 50 --seed 42 --corpus test/corpus
	dune exec -- topobench check --subject warm_vs_cold --instances 100 --seed 42

# Writes BENCH_metrics.json next to bench_output.txt (per-experiment
# seconds, Fleischer phases, Dijkstra runs, simplex pivots).
bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Quick sweep with the machine-readable metrics artifact as the point.
metrics:
	dune exec bench/main.exe -- --quick
	@echo "metrics written to BENCH_metrics.json"

bench-quick:
	dune exec bench/main.exe -- --quick

micro:
	dune exec bench/main.exe -- micro

# Perf record: warmup + median-of-N trials over the Fleischer-dominated
# workload set, written to BENCH_perf.json; exits non-zero on a red
# certificate. Compare two commits' speed with `make bench-pairs`.
perf:
	dune exec bench/main.exe -- perf

perf-quick:
	dune exec bench/main.exe -- perf --quick

# Datacenter-scale certified brackets (~100k switches per instance; see
# Tb_topo.Catalog.scale_specs). Single-trial runs whose success metric
# is the certificate verdict, written to BENCH_perf_scale.json; exits
# non-zero on a red certificate or a blown wall budget
# (TOPOBENCH_SCALE_BUDGET_S, default 2400 s for the full roster).
perf-scale:
	dune exec bench/main.exe -- perf --scale

# CI-sized variant: one ~10k-switch fat tree under a 600 s default
# budget, same certificate gate.
perf-scale-smoke:
	dune exec bench/main.exe -- perf --scale-smoke

# Allocation gate: the fattree-sparse benchmark workload (Fleischer on
# fattree:32, delta-stepping SSSP) must pass its checks and allocate at
# most 25 MB per op (1281 MB before the allocation-free hot path).
# Allocation is noise-immune, so unlike the timing benches this gate is
# hard; scripts/check_alloc.sh asserts it.
alloc-gate:
	python3 benchsuite/run.py --workload fattree-sparse --seed 42 --seconds 5 --trace 0 > alloc_gate.out
	@sh scripts/check_alloc.sh alloc_gate.out

# Ten alternating 20 s pairs of one benchsuite workload, BASE (a git
# ref, built in a temporary worktree) against the working tree, then
# `run.py compare` over them; fails on a regression. About 8 minutes.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=fattree-sparse SEED=42
bench-pairs:
	@if [ -z "$(BASE)" ] || [ -z "$(WORKLOAD)" ] || [ -z "$(SEED)" ]; then \
	  echo "usage: make bench-pairs BASE=<ref> WORKLOAD=<workload> SEED=<seed>" >&2; exit 2; fi
	sh scripts/bench_pairs.sh $(BASE) $(WORKLOAD) $(SEED)

# Regenerate WORKLOAD's benchsuite golden brackets at seed 42 in a
# temporary copy of the working tree and compare them byte for byte with
# the committed benchsuite/golden/WORKLOAD.json; writes nothing in the
# checkout. A change that must keep brackets bit-identical runs it on
# all four workloads.
#   make golden-bits WORKLOAD=ksp-routing
golden-bits:
	@if [ -z "$(WORKLOAD)" ]; then \
	  echo "usage: make golden-bits WORKLOAD=<workload>" >&2; exit 2; fi
	sh scripts/golden_bits.sh $(WORKLOAD)

# Service-tier benchmark: seeded Zipf-skewed request mix replayed
# against an in-process service, written to BENCH_service.json.
loadgen:
	dune exec -- topobench loadgen --seed 42

loadgen-quick:
	dune exec -- topobench loadgen --seed 42 --requests 300

# Chaos gate: the same seeded mix replayed through the supervised
# 4-worker pool while workers are SIGKILLed/SIGSTOPped and response
# bytes truncated, every response checked against a fault-free oracle.
# Fails unless (a) zero responses were lost or incorrect, (b) the
# chaos actually bit (restarts happened), and (c) a deliberately tiny
# intake queue produced typed `overloaded` rejections rather than
# silent timeouts. Writes BENCH_service.json with a "pool" object.
chaos-quick:
	dune exec -- topobench loadgen --pool --seed 42 --requests 150 \
	  --workers 4 --max-queue 12 --wall-ms 5000 \
	  --chaos-kill 0.05 --chaos-stall 0.02 --chaos-truncate 0.03 \
	  --chaos-seed 11 --out BENCH_service.json
	@sh scripts/check_chaos.sh BENCH_service.json

# End-to-end smoke of the ndjson service: three requests, two of them
# identical — exactly one response must be a cache hit.
serve-smoke:
	dune build bin/topobench_cli.exe
	printf '%s\n%s\n%s\n' \
	  '{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm1"}}' \
	  '{"topo":{"spec":"hypercube:2"},"tm":{"named":"lm"}}' \
	  '{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm"}}' \
	  | dune exec bin/topobench_cli.exe -- serve > serve_smoke_out.ndjson
	@test "$$(grep -c '"cached":true' serve_smoke_out.ndjson)" = 1 \
	  || { echo "serve-smoke: expected exactly one cache hit"; \
	       cat serve_smoke_out.ndjson; rm -f serve_smoke_out.ndjson; exit 1; }
	@rm -f serve_smoke_out.ndjson
	@echo "serve-smoke: OK (3 requests, 1 cache hit)"

# End-to-end smoke of `topobench failures`: a checkpointed sweep re-run
# on its own checkpoint must print byte-identical output, and with every
# solver attempt timing out, every trial must land on the cut rung (c).
FAILURES_SMOKE = dune exec bin/topobench_cli.exe -- failures -t fattree -n 4 \
	  --rates 0,0.1 --trials 2
failures-smoke:
	dune build bin/topobench_cli.exe
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(FAILURES_SMOKE) --checkpoint "$$tmp/ck.json" > "$$tmp/first.txt" && \
	$(FAILURES_SMOKE) --checkpoint "$$tmp/ck.json" > "$$tmp/resumed.txt" && \
	{ cmp "$$tmp/first.txt" "$$tmp/resumed.txt" \
	  || { echo "failures-smoke: resumed output differs"; exit 1; }; } && \
	$(FAILURES_SMOKE) --inject-timeout 1 > "$$tmp/faults.txt" && \
	awk '$$1 == "FatTree(k=4)" { n++; if ($$NF !~ /^c+$$/) bad++ } \
	     END { exit !(n == 2 && bad == 0) }' "$$tmp/faults.txt" \
	  || { echo "failures-smoke: expected only cut rungs"; \
	       cat "$$tmp/faults.txt"; exit 1; }
	@echo "failures-smoke: OK (resume identical, injected timeouts on cuts)"

examples:
	dune exec examples/quickstart.exe
	dune exec examples/worst_case_hunt.exe
	dune exec examples/expander_vs_fattree.exe
	dune exec examples/placement_shuffle.exe
	dune exec examples/custom_topology_file.exe

clean:
	dune clean
