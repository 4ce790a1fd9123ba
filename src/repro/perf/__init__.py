"""Performance infrastructure: pass-level profiling and store-fronted compiles.

* :mod:`repro.perf.profiler` — wall-time/counter instrumentation for the
  analysis and codegen pipelines (the ``--profile`` CLI flag).
* :mod:`repro.perf.parallel` — the compile path in front of the on-disk
  compile cache that lets repeated bench/CLI runs skip analysis.
"""

from repro.perf.profiler import (
    Profiler,
    count,
    current,
    pass_timer,
    profiled,
)

__all__ = [
    "Profiler",
    "count",
    "current",
    "pass_timer",
    "profiled",
]
