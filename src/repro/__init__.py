"""repro — reproduction of Krishnamurthy & Yelick, PLDI 1995.

*Optimizing Parallel Programs with Explicit Synchronization*: delay-set
(cycle-detection) analysis for explicitly parallel SPMD programs,
refined with post-wait / barrier / lock synchronization information, and
the distributed-memory code optimizations it enables — message
pipelining, one-way communication, and communication elimination —
evaluated on a simulated CM-5-class machine.

Public entry points:

* :func:`repro.compile_source` — compile a MiniSplit program at an
  optimization level (``OptLevel.O0`` ... ``O4``).
* :func:`repro.analyze_source` — run the delay-set analysis alone.
* :mod:`repro.runtime` — the machine simulator (Table 1 presets).
* :mod:`repro.apps` — the paper's five application kernels.
"""

from repro.analysis.delays import AnalysisLevel, AnalysisResult
from repro.compiler import analyze_source, compile_source, frontend
from repro.pipeline import CompiledProgram, OptLevel

__version__ = "1.0.0"

__all__ = [
    "compile_source",
    "analyze_source",
    "frontend",
    "OptLevel",
    "CompiledProgram",
    "AnalysisLevel",
    "AnalysisResult",
    "__version__",
]
