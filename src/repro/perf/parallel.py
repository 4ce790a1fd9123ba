"""The store-fronted compile: probe -> compile -> put.

The only module that knows what happens on a compile-store miss, and
:func:`compile_batch` is where it knows it: each distinct (source,
level) job is probed once in the content-addressed
:class:`repro.serve.store.ArtifactCache`; the misses compile in one
in-process loop and are put back.  :func:`compile_with_cache` (one job)
and :func:`compile_many` (raise the first error) are thin faces over
it; the ``repro serve`` daemon calls it directly for per-job verdicts.
One source at several levels is not a batch of independent jobs: that
is :meth:`repro.pipeline.CompilationSession.compile_levels`.

The store lives under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-compile``; keys, sharding, eviction and integrity are
:mod:`repro.serve.store`'s).  A key covers the source text, the level
and a fingerprint of the installed compiler, so editing either the
program or the compiler invalidates stale entries.  The daemon serves
the same entries: a kernel compiled by a CLI or bench run is a hit for
every later serve request, and vice versa.  Delete the directory to
force a cold run; ``REPRO_COMPILE_CACHE=0`` disables the cache.

A compile that *raises* is that job's outcome: its neighbours in the
batch keep theirs.
"""

from __future__ import annotations

import os
import pickle
from typing import List, Optional, Sequence, Tuple, Union

from repro.perf import profiler
from repro.serve.store import code_fingerprint, default_cache

__all__ = [
    "cache_enabled", "code_fingerprint", "cache_key",
    "load_cached", "store_cached", "compile_batch",
    "compile_with_cache", "compile_many",
]


LevelLike = Union[str, "object"]  # OptLevel or its string value


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


def compile_batch(
    jobs: Sequence[Tuple[str, LevelLike]],
    use_cache: Optional[bool] = None,
) -> List["object"]:
    """The store-fronted compile of independent (source, level) jobs.

    Returns one outcome per job, in job order: the CompiledProgram, or
    the exception that job's compile raised.  Duplicate jobs compile
    once.
    """
    from repro import OptLevel, compile_source

    if use_cache is None:
        use_cache = cache_enabled()
    normalized = [(source, _level_value(level)) for source, level in jobs]
    outcomes: dict = {}
    pending: List[Tuple[str, str]] = []
    for job in dict.fromkeys(normalized):
        program = load_cached(*job) if use_cache else None
        if program is None:
            pending.append(job)
        else:
            profiler.count("compile.disk_cache_hits")
            outcomes[job] = program
    # One count per job actually compiled — the counter the serve dedup
    # tests assert "exactly one underlying compile" against.
    if pending:
        profiler.count("compile.jobs", len(pending))
    for source, level_value in pending:
        try:
            outcome = compile_source(source, OptLevel(level_value))
            if use_cache:
                store_cached(source, level_value, outcome)
        except Exception as exc:  # noqa: BLE001 - the job's verdict
            outcome = exc
        outcomes[(source, level_value)] = outcome
    return [outcomes[job] for job in normalized]


def compile_with_cache(source: str, level: LevelLike, use_cache: bool = True):
    """compile_source with the on-disk cache in front of it."""
    return compile_many([(source, level)], use_cache=use_cache)[0]


def compile_many(
    jobs: Sequence[Tuple[str, LevelLike]],
    processes: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> List["object"]:
    """Compiles independent (source, level) jobs in order.

    :func:`compile_batch` for callers that want programs or an
    exception: returns CompiledPrograms in job order, or raises the
    first job's error.
    """
    # `processes` is ignored; ROADMAP item 10 (benchmark-only) removes it.
    del processes
    outcomes = compile_batch(jobs, use_cache)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
