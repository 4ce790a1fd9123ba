# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: test bench serve-chaos fuzz fuzz-faults fuzz-weak examples smoke all

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

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
	$(PYTHON) -m pytest tests/lang tests/ir tests/analysis tests/codegen tests/pipeline -q

all: test bench
