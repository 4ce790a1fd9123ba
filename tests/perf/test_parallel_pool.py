"""Crash tolerance of the parallel compile pool.

The job functions below behave differently in pool workers than in the
parent process (``multiprocessing.parent_process()`` is None only in
the parent), so a "worker" failure mode never poisons the serial
fallback path that must rescue it.
"""

import multiprocessing
import os
import time

import pytest

from repro.perf import Profiler, profiled
from repro.perf.parallel import compile_many, job_timeout

JOBS = [("alpha", "O0"), ("beta", "O3"), ("gamma", "O1")]


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def ok_job(job):
    source, level, _use_cache = job
    return f"{source}:{level}"


def crashing_job(job):
    if _in_worker():
        os._exit(1)  # simulates an OOM-killed / segfaulting worker
    return ok_job(job)


def wedged_job(job):
    if _in_worker():
        time.sleep(60)  # simulates a hung worker; parent times out
    return ok_job(job)


def expected():
    return [ok_job((s, lvl, False)) for s, lvl in JOBS]


class TestHealthyPool:
    def test_results_in_order_without_degradation(self):
        with profiled(Profiler()) as prof:
            results = compile_many(
                JOBS, processes=2, use_cache=False, _job_fn=ok_job
            )
        assert results == expected()
        assert not prof.events
        # Healthy pools record the jobs-compiled counter and nothing
        # else — no degradation counters.
        assert prof.counters.get("compile.pool.jobs") == len(JOBS)
        assert not any(
            name.startswith("compile.pool.") for name in prof.counters
            if name != "compile.pool.jobs"
        )

    def test_serial_path_for_single_job(self):
        results = compile_many(
            JOBS[:1], processes=4, use_cache=False, _job_fn=ok_job
        )
        assert results == expected()[:1]


class TestWorkerDeath:
    def test_dead_worker_degrades_to_serial_with_correct_results(self):
        with profiled(Profiler()) as prof:
            results = compile_many(
                JOBS, processes=2, use_cache=False, _job_fn=crashing_job
            )
        assert results == expected()
        assert prof.counters.get("compile.pool.worker_deaths") == 1
        assert prof.counters.get("compile.pool.serial_fallbacks") == 1
        names = [event["name"] for event in prof.events]
        assert "compile.pool.worker_deaths" in names
        assert "compile.pool.serial_fallbacks" in names
        fallback = next(
            event for event in prof.events
            if event["name"] == "compile.pool.serial_fallbacks"
        )
        assert "recompiled in-process" in fallback["detail"]


class TestWorkerTimeout:
    def test_wedged_worker_trips_job_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_TIMEOUT", "1.5")
        assert job_timeout() == 1.5
        start = time.monotonic()
        with profiled(Profiler()) as prof:
            results = compile_many(
                JOBS, processes=2, use_cache=False, _job_fn=wedged_job
            )
        elapsed = time.monotonic() - start
        assert results == expected()
        assert elapsed < 30  # did not wait for the 60s sleep
        assert prof.counters.get("compile.pool.timeouts") == 1
        assert prof.counters.get("compile.pool.serial_fallbacks") == 1

    def test_bad_timeout_env_falls_back_to_default(self, monkeypatch):
        """Unset or blank means the default; see the next test for a
        value that is set but unusable."""
        monkeypatch.delenv("REPRO_COMPILE_TIMEOUT", raising=False)
        assert job_timeout() == 30.0
        monkeypatch.setenv("REPRO_COMPILE_TIMEOUT", "")
        assert job_timeout() == 30.0

    @pytest.mark.parametrize("raw", ["soon", "0", "-2", "inf", "nan"])
    def test_malformed_timeout_env_raises(self, monkeypatch, raw):
        """A typo, or a value that would time every pooled batch out
        at once, fails loudly instead of being replaced."""
        monkeypatch.setenv("REPRO_COMPILE_TIMEOUT", raw)
        with pytest.raises(ValueError, match=r"\$REPRO_COMPILE_TIMEOUT"):
            job_timeout()
