"""The compile driver: one chain, one pass table, a memoizing session.

* :mod:`repro.pipeline.passes` — the eight codegen transformations as
  the :data:`PASSES` table of :class:`Pass` entries, each naming the
  first optimization level that runs it;
* :mod:`repro.pipeline.session` — the :class:`CompilationSession` every
  public compile/analyze entry point routes through: it runs the fixed
  prelude (parse -> lower -> inline -> analysis -> constraints ->
  materialize-ir) and then the level's passes, with per-stage profiler
  timing and the ``--verify-each-pass`` / ``--print-after-pass`` debug
  hooks; a session kept across levels reuses the inlined module and
  the analyses;
* :mod:`repro.pipeline.program` — :class:`OptLevel` and the
  :class:`CompiledProgram` value object.
"""

from repro.pipeline.passes import (
    PASSES,
    LevelRun,
    Pass,
    describe_pipelines,
    level_passes,
)
from repro.pipeline.program import CodegenReport, CompiledProgram, OptLevel
from repro.pipeline.session import CompilationSession, PipelineOptions

__all__ = [
    "CompilationSession",
    "CompiledProgram",
    "CodegenReport",
    "LevelRun",
    "OptLevel",
    "Pass",
    "PASSES",
    "PipelineOptions",
    "describe_pipelines",
    "level_passes",
]
