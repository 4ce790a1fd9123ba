"""repro.fuzz — end-to-end differential fuzzing of the compiler.

The paper's claim is dynamic: the optimized, reordered program must be
*observably sequentially consistent* (§3, §7).  This package composes
the three ingredients the repo already has — a random SPMD program
generator, an adversarial-jitter machine simulator, and an exact SC
trace checker — into a sustained differential-testing campaign:

* :mod:`repro.fuzz.progen` generates seeded random MiniSplit programs
  under several stress profiles (sync-heavy, lock-heavy,
  barrier-misaligned, racy);
* :mod:`repro.fuzz.campaign` compiles each program at several
  optimization levels on one shared session, runs every variant under
  N adversarial schedules, and cross-checks the
  :mod:`repro.fuzz.oracles`;
* on failure, :mod:`repro.fuzz.minimize` shrinks the program with
  delta debugging and :mod:`repro.fuzz.bundle` writes a self-contained
  repro bundle under ``fuzz-failures/``.

The CLI entry point is ``repro fuzz`` (see :mod:`repro.cli`); the
nightly CI campaign and the per-PR smoke both gate on its exit status.
"""

from repro.fuzz.campaign import (
    CampaignStats,
    FuzzConfig,
    LEVEL_NAMES,
    run_campaign,
)
from repro.fuzz.minimize import minimize_program
from repro.fuzz.oracles import OracleFailure
from repro.fuzz.progen import (
    PROFILES,
    GeneratedProgram,
    generate,
    generate_program,
    generate_racy,
)

__all__ = [
    "CampaignStats",
    "FuzzConfig",
    "GeneratedProgram",
    "LEVEL_NAMES",
    "OracleFailure",
    "PROFILES",
    "generate",
    "generate_program",
    "generate_racy",
    "minimize_program",
    "run_campaign",
]
