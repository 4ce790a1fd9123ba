"""``Module.copy``: structurally independent, textually identical.

The shared compilation session strikes every level's working IR from
one pristine inlined module with ``Module.copy``; these tests pin what
that relies on — same text, same uids, no mutable object in common, and
label/temp counters that carry over without being shared.
"""

import pytest

from benchmarks.bench_compile_time import _program_for
from repro import OptLevel, frontend
from repro.apps import ALL_APPS
from repro.codegen.pipeline import compile_module
from repro.compiler import open_session
from repro.fuzz.progen import generate_program


SOURCES = {app.name: app.source(8) for app in ALL_APPS}
SOURCES.update(
    (f"progen{seed}", generate_program(seed, "mixed", 4, 8).source)
    for seed in range(16)
)
SOURCES["ladder64"] = _program_for(64)


def _modules(name):
    """The pre-inline module (several functions) and the inlined one
    (what the session copies)."""
    source = SOURCES[name]
    return [frontend(source), open_session(source).inlined_module()]


def _uids(module):
    return [instr.uid for function in module.functions.values()
            for _, _, instr in function.instructions()]


def _mutable_ids(module):
    ids = {id(module), id(module.shared_vars), id(module.functions)}
    for function in module.functions.values():
        ids.update(map(id, (
            function, function.params, function.blocks,
            function._blocks_by_label, function.local_arrays,
        )))
        for block in function.blocks:
            ids.update((id(block), id(block.instrs)))
            ids.update(map(id, block.instrs))
    return ids


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_copy_is_identical_and_disjoint(name):
    for module in _modules(name):
        clone = module.copy()
        assert str(clone) == str(module)
        assert _uids(clone) == _uids(module)
        assert not _mutable_ids(clone) & _mutable_ids(module)
        for function in clone.functions.values():
            assert all(function.block(block.label) is block
                       for block in function.blocks)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_mutating_the_copy_leaves_the_original(name):
    for module in _modules(name):
        before, uids = str(module), _uids(module)
        clone = module.copy()
        compiled = compile_module(clone, OptLevel.O3, clone=False)
        assert compiled.module is clone
        assert str(clone) != before  # O3 rewrote the copy...
        assert str(module) == before  # ...and only the copy
        assert _uids(module) == uids


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_counters_carry_over_without_sharing(name):
    for module in _modules(name):
        clone = module.copy()
        minted = [(f.new_temp(), f.fresh_label())
                  for f in clone.functions.values()]
        # Minting on the copy did not advance the original, which
        # still hands out the very same names next...
        assert minted == [(f.new_temp(), f.fresh_label())
                          for f in module.functions.values()]
        # ...and those continue the sequence: none is taken already.
        for function, (temp, label) in zip(
            module.functions.values(), minted
        ):
            assert not function.has_block(label)
            assert all(instr.dest != temp
                       for _, _, instr in function.instructions())
