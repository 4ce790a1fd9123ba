"""The store-fronted compile: probe -> compile -> put, alone or pooled.

The only module that knows what happens on a compile-store miss, and
:func:`compile_batch` is where it knows it: each distinct (source,
level) job is probed once in the content-addressed
:class:`repro.serve.store.ArtifactCache`; the misses compile — across a
``multiprocessing`` pool when one is asked for and there are several,
in-process otherwise — and are put back.  :func:`compile_with_cache`
(one job) and :func:`compile_many` (raise the first error) are thin
faces over it; the ``repro serve`` daemon calls it directly for per-job
verdicts.  One source at several levels is not a batch of independent
jobs: that is :meth:`repro.pipeline.CompilationSession.compile_levels`.

The store lives under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-compile``; keys, sharding, eviction and integrity are
:mod:`repro.serve.store`'s).  A key covers the source text, the level
and a fingerprint of the installed compiler, so editing either the
program or the compiler invalidates stale entries.  The daemon serves
the same entries: a kernel compiled by a pool worker is a hit for
every later serve request, and vice versa.  Delete the directory to
force a cold run; ``REPRO_COMPILE_CACHE=0`` disables the cache.

Crash tolerance: workers are expendable, behind one timeout and one
fallback.  A worker that dies (OOM kill, segfault, ``os._exit``)
surfaces as ``BrokenProcessPool``; one that keeps the batch waiting
past the timeout (the ``timeout`` argument — the daemon's
``watchdog_timeout`` — else ``$REPRO_COMPILE_TIMEOUT`` seconds,
default 300) counts as wedged.  Either way the remaining workers are
terminated and the unfinished jobs compile in the same in-process loop
that serves pool-less batches — correctness never depends on the pool
— and the degradation is recorded on the active profiler (counters
``compile.pool.worker_deaths`` / ``.timeouts`` / ``.unavailable`` /
``.serial_fallbacks`` plus an ``events`` entry), so ``--profile`` and
the daemon's ``stats`` show when and why the fan-out degraded.  A
compile that *raises* is no pool fault: the exception is that job's
outcome and its neighbours keep theirs.
"""

from __future__ import annotations

import os
import pickle
from typing import List, Optional, Sequence, Tuple, Union

from repro.perf import profiler
from repro.serve.store import code_fingerprint, default_cache

__all__ = [
    "cache_enabled", "code_fingerprint", "cache_key",
    "load_cached", "store_cached", "compile_job", "compile_batch",
    "compile_with_cache", "compile_many", "job_timeout",
]


LevelLike = Union[str, "object"]  # OptLevel or its string value
#: What a job function receives: (source, level value, use_cache).
Job = Tuple[str, str, bool]


def cache_enabled() -> bool:
    return os.environ.get("REPRO_COMPILE_CACHE", "1") != "0"


def _level_value(level: LevelLike) -> str:
    return level if isinstance(level, str) else level.value


def cache_key(source: str, level: LevelLike) -> str:
    """The content address of a compile — shared with ``repro serve``."""
    return default_cache().key(
        "compile", source=source, level=_level_value(level)
    )


def load_cached(source: str, level: LevelLike):
    """The cached CompiledProgram for (source, level), or None."""
    if not cache_enabled():
        return None
    return default_cache().get(cache_key(source, level))


def store_cached(source: str, level: LevelLike, program) -> None:
    if not cache_enabled():
        return
    default_cache().put_bytes(
        cache_key(source, level), pickle.dumps(program)
    )


def compile_job(job: Job):
    """A store miss: ``compile_source``, then the put.  The one job
    function — pool workers and the in-process loop both run it, after
    :func:`compile_batch` has probed the store."""
    from repro import OptLevel, compile_source

    source, level_value, use_cache = job
    program = compile_source(source, OptLevel(level_value))
    if use_cache:
        store_cached(source, level_value, program)
    return program


def job_timeout() -> float:
    """Seconds to wait for a pool job before its worker counts as
    wedged (``$REPRO_COMPILE_TIMEOUT``, default 300)."""
    try:
        return float(os.environ.get("REPRO_COMPILE_TIMEOUT", "300"))
    except ValueError:
        return 300.0


def _record_degradation(kind: str, detail: str) -> None:
    profiler.count(f"compile.pool.{kind}")
    profiler.record_event(f"compile.pool.{kind}", detail)


def _run_pool(pending: Sequence[Job], processes: int, job_fn,
              timeout: float) -> dict:
    """Fans ``pending`` out to worker processes, surviving worker death.

    Returns job -> outcome (result, or the exception the job raised)
    for what the pool produced; after a degradation (module docstring)
    the missing jobs are the caller's in-process loop's.
    """
    outcomes: dict = {}
    pool = None
    failure: Optional[str] = None
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            max_workers=min(processes, len(pending))
        )
        futures = [(job, pool.submit(job_fn, job)) for job in pending]
        for job, future in futures:
            try:
                outcomes[job] = future.result(timeout=timeout)
            except BrokenProcessPool as exc:
                failure = f"worker died: {exc}"
                _record_degradation("worker_deaths", failure)
                break
            except FutureTimeout:
                failure = f"worker exceeded {timeout:g}s job timeout"
                _record_degradation("timeouts", failure)
                break
            except Exception as exc:  # noqa: BLE001 - the job's verdict
                outcomes[job] = exc
    except (OSError, ImportError, PermissionError) as exc:
        # Restricted sandboxes: no subprocesses at all.
        failure = f"pool unavailable: {exc}"
        _record_degradation("unavailable", failure)
    finally:
        if pool is not None:
            if failure is not None:
                # Dead or wedged workers would make a graceful shutdown
                # hang; kill whatever is left before falling back.
                # SIGKILL, not SIGTERM: a forked worker shares its
                # parent's signal wakeup fd, so a *handled* signal
                # would run the parent's handler (`repro serve` would
                # start draining).
                workers = getattr(pool, "_processes", None) or {}
                for proc in list(workers.values()):
                    try:
                        proc.kill()
                    except (OSError, AttributeError):
                        pass
            pool.shutdown(wait=failure is None, cancel_futures=True)
    if len(outcomes) < len(pending):
        _record_degradation(
            "serial_fallbacks",
            f"{len(pending) - len(outcomes)} job(s) recompiled "
            f"in-process ({failure or 'pool produced no result'})",
        )
    return outcomes


def compile_batch(
    jobs: Sequence[Tuple[str, LevelLike]],
    processes: Optional[int] = None,
    use_cache: Optional[bool] = None,
    timeout: Optional[float] = None,
    job_fn=None,
) -> List["object"]:
    """The store-fronted compile of independent (source, level) jobs.

    Returns one outcome per job, in job order: the CompiledProgram, or
    the exception that job's compile raised.  Duplicate jobs compile
    once.  ``processes``: pool width (``None`` = one per CPU; 0/1, or a
    single miss, = in-process).  ``timeout``: seconds the pool waits
    for a result (default :func:`job_timeout`).  ``job_fn`` (picklable)
    substitutes :func:`compile_job` for tests and chaos drills.
    """
    if use_cache is None:
        use_cache = cache_enabled()
    job_fn = job_fn or compile_job
    normalized = [
        (source, _level_value(level), use_cache) for source, level in jobs
    ]
    outcomes: dict = {}
    pending: List[Job] = []
    for job in dict.fromkeys(normalized):
        program = load_cached(job[0], job[1]) if use_cache else None
        if program is None:
            pending.append(job)
        else:
            profiler.count("compile.disk_cache_hits")
            outcomes[job] = program
    if pending:
        # One count per job actually compiled (pool or in-process) —
        # the counter the serve dedup tests assert "exactly one
        # underlying compile" against.
        profiler.count("compile.pool.jobs", len(pending))
        if processes is None:
            processes = os.cpu_count() or 1
        if processes > 1 and len(pending) > 1:
            outcomes.update(_run_pool(
                pending, processes, job_fn,
                job_timeout() if timeout is None else timeout,
            ))
        for job in pending:
            if job not in outcomes:
                try:
                    outcomes[job] = job_fn(job)
                except Exception as exc:  # noqa: BLE001 - the job's verdict
                    outcomes[job] = exc
    return [outcomes[job] for job in normalized]


def compile_with_cache(source: str, level: LevelLike, use_cache: bool = True):
    """compile_source with the on-disk cache in front of it."""
    return compile_many([(source, level)], use_cache=use_cache)[0]


def compile_many(
    jobs: Sequence[Tuple[str, LevelLike]],
    processes: Optional[int] = None,
    use_cache: Optional[bool] = None,
    _job_fn=None,
) -> List["object"]:
    """Compiles independent (source, level) jobs, fanning out to a pool.

    :func:`compile_batch` for callers that want programs or an
    exception: returns CompiledPrograms in job order, or raises the
    first job's error.  ``_job_fn`` is a test hook substituting the
    per-job worker function.
    """
    outcomes = compile_batch(
        jobs, processes=processes, use_cache=use_cache, job_fn=_job_fn
    )
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
