"""Random SPMD program generation for differential fuzzing.

Promoted from ``tests/properties/progen.py`` and extended with stress
profiles.  Deterministic profiles generate MiniSplit programs whose
final shared-memory contents are *independent of timing*, so any two
compilations must produce identical snapshots.  Determinism is
guaranteed by construction:

* data phases write only the executing processor's own partition
  (``V[MYPROC*B + i]``) and are separated from conflicting reads by
  barriers;
* gather phases read a neighbor's block of the *previous* phase's
  variable;
* scalar phases are owner-guarded (``if (MYPROC == 0)``);
* lock phases update shared accumulators commutatively (sums), so the
  final value is order-independent;
* post/wait ring phases read only data the matching post ordered.

The ``racy`` profile deliberately breaks determinism (unsynchronized
conflicting accesses) while keeping traces tiny, so the exact SC
checker applies to every optimization level's execution.

Every program is seeded (one seed = one program) and structured: a
:class:`GeneratedProgram` knows its declaration and phase specs, so the
delta-debugging minimizer can drop phases or shrink the processor
count and re-render a valid program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

BLOCK = 4  # elements per processor per array

#: Local declarations inside main() for the deterministic profiles.
_DET_HEADER = (
    f"  int i; int nb;\n"
    f"  double tmp;\n"
    f"  double buf[{BLOCK}];\n"
    f"  int base = MYPROC * {BLOCK};"
)

#: Local declarations for the racy profile.
_RACY_HEADER = "  int t;"


@dataclass(frozen=True)
class DeclSpec:
    """One shared declaration, parameterized by the processor count."""

    name: str
    #: "array" (double, BLOCK*procs), "scalar" (double), "flags"
    #: (flag_t, procs), "lock" (lock_t) or "int_array" (int, procs).
    kind: str

    def render(self, procs: int) -> str:
        if self.kind == "array":
            return f"shared double {self.name}[{BLOCK * procs}];"
        if self.kind == "scalar":
            return f"shared double {self.name};"
        if self.kind == "flags":
            return f"shared flag_t {self.name}[{procs}];"
        if self.kind == "lock":
            return f"shared lock_t {self.name};"
        if self.kind == "int_array":
            return f"shared int {self.name}[{procs}];"
        raise ValueError(f"unknown decl kind {self.kind!r}")


@dataclass(frozen=True)
class Phase:
    """One generated program phase: a body plus minimization metadata."""

    kind: str
    body: str
    #: Smallest processor count the body's baked constants tolerate
    #: (guard indices, remote element indices).
    min_procs: int = 1


@dataclass(frozen=True)
class GeneratedProgram:
    """A structured random program that the minimizer can re-render."""

    seed: int
    profile: str
    procs: int
    decls: Tuple[DeclSpec, ...]
    phases: Tuple[Phase, ...]
    header: str
    #: Timing-independent final memory (snapshot oracle applies)?
    deterministic: bool
    #: Per-processor loop-free (uid-sorted traces are source order)?
    straight_line: bool

    @property
    def source(self) -> str:
        decls = "\n".join(spec.render(self.procs) for spec in self.decls)
        body = "\n".join(phase.body for phase in self.phases)
        return (
            f"{decls}\n"
            f"void main() {{\n"
            f"{self.header}\n"
            f"{body}\n"
            f"}}\n"
        )

    @property
    def min_procs(self) -> int:
        return max([phase.min_procs for phase in self.phases], default=1)

    def subset(self, indices: Sequence[int]) -> "GeneratedProgram":
        """The program restricted to the given phase indices.

        Any subset of phases remains valid and (for deterministic
        profiles) deterministic: each phase writes only arrays it
        declares, so a dropped phase leaves its arrays at their initial
        zeros for every reader.  Declarations are all kept.
        """
        kept = tuple(self.phases[i] for i in sorted(set(indices)))
        return replace(self, phases=kept)

    def with_procs(self, procs: int) -> "GeneratedProgram":
        """The same phases re-rendered for a smaller machine."""
        if procs < self.min_procs:
            raise ValueError(
                f"phases require >= {self.min_procs} procs, got {procs}"
            )
        return replace(self, procs=procs)


class ProgramBuilder:
    """Accumulates declaration and phase specs for one random program."""

    def __init__(self, seed: int, procs: int, unroll: bool = False):
        self.rng = random.Random(seed)
        self.procs = procs
        self.unroll = unroll
        self.arrays: List[str] = []
        self.decls: List[DeclSpec] = []
        self.phases: List[Phase] = []
        self.flag_count = 0
        self.lock_count = 0
        self.scalar_count = 0

    # -- declarations -----------------------------------------------------

    def new_array(self) -> str:
        name = f"V{len(self.arrays)}"
        self.arrays.append(name)
        self.decls.append(DeclSpec(name, "array"))
        return name

    def new_scalar(self) -> str:
        name = f"S{self.scalar_count}"
        self.scalar_count += 1
        self.decls.append(DeclSpec(name, "scalar"))
        return name

    def new_flags(self) -> str:
        name = f"f{self.flag_count}"
        self.flag_count += 1
        self.decls.append(DeclSpec(name, "flags"))
        return name

    def new_lock(self) -> str:
        name = f"lk{self.lock_count}"
        self.lock_count += 1
        self.decls.append(DeclSpec(name, "lock"))
        return name

    # -- loop emission ----------------------------------------------------

    def _loop(self, template: Callable[[str], str],
              count: int = BLOCK, indent: str = "  ") -> str:
        """A for-loop over ``i`` — or its unrolling when straight-line
        code is requested (uid-sorted traces stay in source order)."""
        if not self.unroll:
            return (
                f"{indent}for (i = 0; i < {count}; i = i + 1) {{\n"
                f"{indent}  {template('i')}\n"
                f"{indent}}}"
            )
        return "\n".join(
            f"{indent}{template(str(i))}" for i in range(count)
        )

    # -- phases -----------------------------------------------------------

    def phase_write_own(self) -> None:
        var = self.new_array()
        a = self.rng.randint(1, 5)
        b = self.rng.randint(0, 9)
        body = self._loop(
            lambda i: f"{var}[base + {i}] = {a}.0 * (base + {i}) + {b}.0;"
        )
        self.phases.append(Phase("write_own", f"{body}\n  barrier();"))

    def phase_gather_neighbor(self) -> None:
        if not self.arrays:
            self.phase_write_own()
        src = self.rng.choice(self.arrays)
        dst = self.new_array()
        shift = self.rng.randint(1, self.procs - 1) if self.procs > 1 else 0
        scale = self.rng.randint(1, 3)
        fetch = self._loop(
            lambda i: f"buf[{i}] = {src}[nb * {BLOCK} + {i}];"
        )
        use = self._loop(
            lambda i: f"{dst}[base + {i}] = buf[{i}] * {scale}.0 + 1.0;"
        )
        self.phases.append(Phase(
            "gather",
            f"  nb = (MYPROC + {shift}) % PROCS;\n"
            f"{fetch}\n"
            f"  barrier();\n"
            f"{use}\n"
            f"  barrier();",
        ))

    def phase_scalar_broadcast(self) -> None:
        scalar = self.new_scalar()
        dst = self.new_array()
        value = self.rng.randint(1, 20)
        fanout = self._loop(
            lambda i: f"{dst}[base + {i}] = tmp + 1.0 * {i};"
        )
        self.phases.append(Phase(
            "scalar_broadcast",
            f"  if (MYPROC == 0) {{ {scalar} = {value}.0; }}\n"
            f"  barrier();\n"
            f"  tmp = {scalar};\n"
            f"{fanout}\n"
            f"  barrier();",
        ))

    def phase_lock_accumulate(self) -> None:
        lock = self.new_lock()
        scalar = self.new_scalar()
        rounds = self.rng.randint(1, 2)
        critical = (
            f"lock({lock});\n"
            f"    {scalar} = {scalar} + 1.0 * MYPROC + 1.0;\n"
            f"    unlock({lock});"
        )
        if self.unroll:
            critical = critical.replace("\n    ", "\n  ")
            body = "\n".join(f"  {critical}" for _ in range(rounds))
        else:
            body = (
                f"  for (i = 0; i < {rounds}; i = i + 1) {{\n"
                f"    {critical}\n"
                f"  }}"
            )
        self.phases.append(Phase(
            "lock_accumulate", f"{body}\n  barrier();"
        ))

    def phase_post_wait_ring(self) -> None:
        flags = self.new_flags()
        src = self.new_array()
        dst = self.new_array()
        offset = self.rng.randint(0, 4)
        fill = self._loop(
            lambda i: f"{src}[base + {i}] = 1.0 * (base + {i}) + {offset}.0;"
        )
        consume = self._loop(
            lambda i: f"{dst}[base + {i}] = {src}[nb * {BLOCK} + {i}] * 2.0;"
        )
        self.phases.append(Phase(
            "post_wait_ring",
            f"  nb = (MYPROC + 1) % PROCS;\n"
            f"{fill}\n"
            f"  post({flags}[MYPROC]);\n"
            f"  wait({flags}[nb]);\n"
            f"{consume}\n"
            f"  barrier();",
        ))

    def phase_misaligned_barrier(self) -> None:
        """Barriers on both arms of a conditional: dynamically aligned
        (every processor crosses two episodes), statically misaligned
        (different blocks) — stresses the §5.2 barrier-phase analysis.
        """
        src = self.new_array()
        dst = self.new_array()
        writer = self.rng.randrange(self.procs)
        a = self.rng.randint(1, 5)
        fill = self._loop(
            lambda i: f"{src}[base + {i}] = {a}.0 * (base + {i});",
            indent="    ",
        )
        mark = self._loop(
            lambda i: f"{dst}[base + {i}] = {a}.0;", indent="    "
        )
        consume = self._loop(
            lambda i: (
                f"{dst}[base + {i}] = "
                f"{src}[{writer} * {BLOCK} + {i}] + 1.0;"
            ),
            indent="    ",
        )
        self.phases.append(Phase(
            "misaligned_barrier",
            f"  if (MYPROC == {writer}) {{\n"
            f"{fill}\n"
            f"    barrier();\n"
            f"{mark}\n"
            f"    barrier();\n"
            f"  }} else {{\n"
            f"    barrier();\n"
            f"{consume}\n"
            f"    barrier();\n"
            f"  }}",
            min_procs=writer + 1,
        ))

    #: The historical phase mix (kept in this order so ``generate``
    #: reproduces the exact seed->program mapping of the original
    #: tests/properties generator).
    PHASES = (
        phase_write_own,
        phase_gather_neighbor,
        phase_scalar_broadcast,
        phase_lock_accumulate,
        phase_post_wait_ring,
    )

    def build(self, num_phases: int,
              mix: Sequence[Callable] = PHASES) -> List[Phase]:
        for _ in range(num_phases):
            phase_fn = self.rng.choice(mix)
            phase_fn(self)
        return self.phases


def _build_racy(seed: int, procs: int) -> Tuple[List[DeclSpec],
                                                List[Phase]]:
    """Guarded straight-line access mixes with genuine races.

    Every processor gets a few reads/writes of shared scalars homed on
    different processors (arrays of extent ``procs``, element p on
    processor p), with no synchronization at all — maximal race
    exposure, bounded trace size.
    """
    rng = random.Random(seed)
    names = ("U", "V", "W")
    decls = [DeclSpec(name, "int_array") for name in names]
    phases = []
    for p in range(procs):
        body = []
        min_procs = p + 1
        for _ in range(rng.randint(1, 3)):
            var = rng.choice(names)
            element = rng.randrange(procs)
            min_procs = max(min_procs, element + 1)
            if rng.random() < 0.5:
                value = rng.randint(1, 9)
                body.append(f"    {var}[{element}] = {value};")
            else:
                body.append(f"    t = {var}[{element}];")
        phases.append(Phase(
            "racy_guard",
            f"  if (MYPROC == {p}) {{\n"
            + "\n".join(body)
            + "\n  }",
            min_procs=min_procs,
        ))
    return decls, phases


@dataclass(frozen=True)
class Profile:
    """A generation profile: phase mix plus rendering options."""

    name: str
    description: str
    deterministic: bool
    straight_line: bool
    #: Builder phase mix (duplicates weight the choice); None = racy.
    mix: Tuple[Callable, ...] = ()
    #: Run the program under lossy-network schedules too: the campaign
    #: adds fault-plan schedules and the snapshot oracle then asserts
    #: fault-free and lossy runs agree (reliability-protocol fuzzing).
    faulty: bool = False
    #: Run the program under TSO/PSO store-buffer schedules too: the
    #: campaign adds weak-memory schedules and the snapshot oracle then
    #: asserts SC and relaxed runs agree — the robustness oracle (the
    #: compiled delays make relaxed executions sequentially consistent).
    weak: bool = False

    def generate(self, seed: int, procs: int,
                 num_phases: int) -> GeneratedProgram:
        if not self.mix:  # racy
            decls, phases = _build_racy(seed, procs)
            return GeneratedProgram(
                seed=seed, profile=self.name, procs=procs,
                decls=tuple(decls), phases=tuple(phases),
                header=_RACY_HEADER, deterministic=False,
                straight_line=True,
            )
        builder = ProgramBuilder(
            seed, procs, unroll=self.straight_line
        )
        phases = builder.build(num_phases, self.mix)
        return GeneratedProgram(
            seed=seed, profile=self.name, procs=procs,
            decls=tuple(builder.decls), phases=tuple(phases),
            header=_DET_HEADER, deterministic=self.deterministic,
            straight_line=self.straight_line,
        )


_B = ProgramBuilder

PROFILES: Dict[str, Profile] = {
    "mixed": Profile(
        "mixed",
        "the historical uniform phase mix (loops kept)",
        deterministic=True, straight_line=False,
        mix=_B.PHASES,
    ),
    "sync_heavy": Profile(
        "sync_heavy",
        "post/wait rings and owner broadcasts dominate; unrolled",
        deterministic=True, straight_line=True,
        mix=(
            _B.phase_post_wait_ring, _B.phase_post_wait_ring,
            _B.phase_post_wait_ring, _B.phase_scalar_broadcast,
            _B.phase_scalar_broadcast, _B.phase_write_own,
        ),
    ),
    "lock_heavy": Profile(
        "lock_heavy",
        "lock-guarded commutative accumulation dominates; unrolled",
        deterministic=True, straight_line=True,
        mix=(
            _B.phase_lock_accumulate, _B.phase_lock_accumulate,
            _B.phase_lock_accumulate, _B.phase_write_own,
            _B.phase_gather_neighbor,
        ),
    ),
    "barrier_misaligned": Profile(
        "barrier_misaligned",
        "statically misaligned (conditional) barriers; unrolled",
        deterministic=True, straight_line=True,
        mix=(
            _B.phase_misaligned_barrier, _B.phase_misaligned_barrier,
            _B.phase_write_own, _B.phase_gather_neighbor,
        ),
    ),
    "racy": Profile(
        "racy",
        "unsynchronized conflicting accesses, tiny SC-checkable traces",
        deterministic=False, straight_line=True,
    ),
    "faulty": Profile(
        "faulty",
        "the mixed phase set replayed over a lossy network: dropped/"
        "duplicated messages behind the retransmission protocol",
        deterministic=True, straight_line=False,
        mix=_B.PHASES,
        faulty=True,
    ),
    "weak_memory": Profile(
        "weak_memory",
        "the mixed phase set replayed under TSO/PSO store buffers: the "
        "robustness oracle asserts SC and relaxed snapshots agree",
        deterministic=True, straight_line=False,
        mix=_B.PHASES,
        weak=True,
    ),
}


def generate_program(
    seed: int,
    profile: str = "mixed",
    procs: int = 4,
    num_phases: int = 4,
) -> GeneratedProgram:
    """A structured random program for (seed, profile)."""
    try:
        spec = PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(
            f"unknown fuzz profile {profile!r} (known: {known})"
        ) from None
    return spec.generate(seed, procs, num_phases)


def generate(seed: int, procs: int = 4, num_phases: int = 4) -> str:
    """A random deterministic SPMD program for the given seed.

    Byte-compatible with the original ``tests/properties/progen``
    generator: same seed, same program.
    """
    return generate_program(seed, "mixed", procs, num_phases).source


def generate_racy(seed: int, procs: int = 3) -> str:
    """A small racy SPMD program (tiny, SC-checkable traces)."""
    return generate_program(seed, "racy", procs).source
