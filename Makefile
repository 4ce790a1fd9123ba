# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: test bench perf perf-scale perf-gate serve-bench serve-gate serve-chaos fuzz fuzz-faults fuzz-weak examples smoke all

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

perf:
	$(PYTHON) -m pytest benchmarks/bench_perf.py -q -s

# CI ladder: sizes trimmed to 128 (512 is a local/refresh-only size),
# output redirected so the committed baseline stays untouched.
perf-scale:
	REPRO_PERF_SIZES=8,16,32,64,128 REPRO_PERF_OUTPUT=BENCH_scale.json \
		$(PYTHON) -m pytest benchmarks/bench_perf.py::test_perf_trajectory -q -s

perf-gate: perf-scale
	$(PYTHON) benchmarks/check_regression.py \
		--baseline BENCH_analysis.json --fresh BENCH_scale.json

# Daemon load bench: ≥1000 pipelined requests against `repro serve`,
# asserting a ≥90% store hit rate.  `serve-bench` refreshes the
# committed baseline; `serve-gate` measures to a fresh file and
# compares (CI; threshold is loose because the phases are wall-clock
# over a multiprocess compile pool).
serve-bench:
	$(PYTHON) benchmarks/bench_serve.py

serve-gate:
	REPRO_SERVE_OUTPUT=BENCH_serve_fresh.json $(PYTHON) benchmarks/bench_serve.py
	$(PYTHON) benchmarks/check_regression.py \
		--baseline BENCH_serve.json --fresh BENCH_serve_fresh.json \
		--threshold 3.0

# Full chaos oracle: 200 seeded fault schedules against the serve
# stack, each asserting byte-identity-or-typed-error, no leaked
# sockets/threads, and convergence to a 100% hit rate after healing.
# CI runs the smoke variant (fewer schedules under a wall-clock
# budget); this target is the overnight/local acceptance run.
serve-chaos:
	REPRO_CHAOS_SCHEDULES=200 $(PYTHON) -m pytest tests/serve/test_chaos.py -q

fuzz:
	$(PYTHON) -m repro fuzz --budget-seconds 60 --profile all

# Lossy-network campaign only: every program replayed under seeded
# drop/duplicate/partition schedules with the snapshot-agreement oracle.
fuzz-faults:
	$(PYTHON) -m repro fuzz --budget-seconds 60 --profile faulty

# Weak-memory robustness campaign only: every program replayed under
# TSO/PSO store buffers (snapshots must match SC), plus the SB-litmus
# canary proving the delay-stripped twin's reordering is caught.
fuzz-weak:
	$(PYTHON) -m repro fuzz --budget-seconds 60 --profile weak_memory

examples:
	@for s in examples/*.py; do echo "== $$s"; $(PYTHON) $$s || exit 1; done

smoke:
	$(PYTHON) -m pytest tests/lang tests/ir tests/analysis -q

all: test bench
