"""Seeded inputs: the programs every workload compiles, simulates or serves.

Three groups, chosen for what the compiler does with them:

* ``apps`` — the paper's five §8 kernels (Fig. 12's programs);
* ``progen`` — structured random SPMD programs from
  ``repro.fuzz.progen`` (the shapes users write: loops, flags, locks);
* ``synthetic`` — the barrier-phase ladder whose cost grows faster than
  its size (``coalesce-counters`` is quadratic in barrier phases).

The kernels and the ladder are the same for every seed.  The seed draws
the progen programs from a fixed pool and orders the corpus, so that two
seeds compile different programs of statistically equal cost: host-time
metrics then differ between seeds by noise, not by input size.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.apps import ALL_APPS
from repro.fuzz.progen import generate_program

#: Progen pool: seeds 0..POOL-1 of the "mixed" profile, 4 procs, 8 phases.
PROGEN_POOL = 16
PROGEN_PROCS = 4
PROGEN_PHASES = 8
#: Fresh (never served before) programs start here, clear of the pool.
FRESH_BASE = 1_000_000


@dataclass(frozen=True)
class Program:
    group: str      # "apps" | "progen" | "synthetic"
    name: str
    source: str
    procs: int      # processor count the source was generated for


def barrier_ladder(size: int) -> str:
    """A synthetic SPMD program with ~size accesses in barrier phases.

    Copied from ``benchmarks/bench_compile_time._program_for`` so the
    benchmark depends on nothing outside ``bench/`` and ``src/``.
    """
    lines = ["shared double A[%d];" % (size * 8), "void main() {",
             "  int i;"]
    for _phase in range(size // 4):
        for k in range(4):
            lines.append(
                f"  A[MYPROC * 8 + {k}] = A[MYPROC * 8 + {k}] + 1.0;"
            )
        lines.append("  barrier();")
    lines.append("}")
    return "\n".join(lines)


def app_programs(procs: int = 8) -> List[Program]:
    return [Program("apps", app.name, app.source(procs), procs)
            for app in ALL_APPS]


def progen_program(seed: int) -> Program:
    generated = generate_program(seed, "mixed", PROGEN_PROCS, PROGEN_PHASES)
    return Program("progen", f"progen{seed}", generated.source, PROGEN_PROCS)


def progen_draw(rng: random.Random, count: int) -> List[Program]:
    """``count`` programs drawn without replacement from the pool."""
    return [progen_program(seed)
            for seed in rng.sample(range(PROGEN_POOL), count)]


def fresh_programs(seed: int, count: int) -> List[Program]:
    """Programs no earlier request of this run can have stored."""
    base = FRESH_BASE + seed * 10_000
    return [progen_program(base + index) for index in range(count)]


def ladder_programs(sizes: Sequence[int]) -> List[Program]:
    return [Program("synthetic", f"ladder{size}", barrier_ladder(size), 4)
            for size in sizes]


def digest(programs: Sequence[Program]) -> str:
    """Order-sensitive digest of a corpus (same seed → same digest)."""
    sha = hashlib.sha256()
    for program in programs:
        sha.update(program.name.encode())
        sha.update(b"\0")
        sha.update(program.source.encode())
        sha.update(b"\0")
    return sha.hexdigest()[:16]
