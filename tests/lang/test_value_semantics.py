"""``Token`` and ``SourceLocation`` keep a frozen dataclass's value semantics.

Both are slots classes built once per token; equality, hashing, ``repr``
and pickling must read exactly as they did when they were frozen
dataclasses, because compiled artifacts carry locations inside them.
"""

import copy
import pickle

import pytest

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.errors import SourceLocation
from repro.lang import tokenize
from repro.lang.tokens import Token, TokenKind

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


class TestSourceLocation:
    def test_equality_is_by_fields(self):
        loc = SourceLocation(3, 7, "f.ms")
        assert loc == SourceLocation(3, 7, "f.ms")
        assert loc != SourceLocation(3, 8, "f.ms")
        assert loc != SourceLocation(3, 7, "g.ms")
        assert SourceLocation(1, 1) == SourceLocation(1, 1, "<input>")

    def test_never_equal_to_a_tuple(self):
        assert SourceLocation(1, 2, "f") != (1, 2, "f")

    def test_hash_matches_the_dataclass(self):
        assert hash(SourceLocation(3, 7, "f.ms")) == hash((3, 7, "f.ms"))

    def test_dict_keys(self):
        table = {SourceLocation(1, 1, "f"): "a", SourceLocation(2, 1, "f"): "b"}
        assert table[SourceLocation(2, 1, "f")] == "b"
        assert len({SourceLocation(1, 1), SourceLocation(1, 1)}) == 1

    def test_repr_and_str(self):
        loc = SourceLocation(3, 7, "f.ms")
        assert repr(loc) == "SourceLocation(line=3, column=7, filename='f.ms')"
        assert str(loc) == "f.ms:3:7"

    def test_immutable(self):
        loc = SourceLocation(1, 1)
        with pytest.raises(AttributeError):
            loc.column = 2
        with pytest.raises(AttributeError):
            del loc.filename
        with pytest.raises(AttributeError):
            loc.extra = 0
        assert loc == SourceLocation(1, 1)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickle_round_trip(self, protocol):
        loc = SourceLocation(12, 5, "prog.ms")
        assert pickle.loads(pickle.dumps(loc, protocol)) == loc

    def test_copies_are_equal(self):
        loc = SourceLocation(4, 2, "f")
        assert copy.copy(loc) == loc == copy.deepcopy(loc)


class TestToken:
    def test_equality_is_by_fields(self):
        loc = SourceLocation(1, 1, "f")
        assert Token(TokenKind.IDENT, loc, "x") == Token(
            TokenKind.IDENT, SourceLocation(1, 1, "f"), "x")
        assert Token(TokenKind.IDENT, loc, "x") != Token(
            TokenKind.IDENT, loc, "y")
        assert Token(TokenKind.PLUS, loc) != Token(TokenKind.MINUS, loc)
        assert Token(TokenKind.PLUS, loc) == Token(TokenKind.PLUS, loc, None)

    def test_dict_keys(self):
        tokens = tokenize("a + a", "f.ms")
        table = {token: index for index, token in enumerate(tokens)}
        assert len(table) == len(tokens)
        assert table[Token(TokenKind.PLUS, SourceLocation(1, 3, "f.ms"))] == 1

    def test_repr_and_str(self):
        token = Token(TokenKind.IDENT, SourceLocation(1, 4, "f.ms"), "x")
        assert repr(token) == (
            "Token(kind=<TokenKind.IDENT: 'ident'>, location=SourceLocation("
            "line=1, column=4, filename='f.ms'), value='x')"
        )
        assert str(token) == "IDENT(x)@f.ms:1:4"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickle_round_trip(self, protocol):
        tokens = tokenize("int x = 1 + 2.5; // c\n/* d\n */ y", "f.ms")
        assert pickle.loads(pickle.dumps(tokens, protocol)) == tokens


def _locations(program):
    return [
        instr.location
        for function in program.module.functions.values()
        for _, _, instr in function.instructions()
    ]


def test_compiled_program_pickle_round_trip():
    """A compiled artifact carries its locations through pickle."""
    program = compile_source(get_app("ocean").source(4), OptLevel.O3)
    loaded = pickle.loads(pickle.dumps(program))
    assert loaded.pretty() == program.pretty()
    locations = _locations(program)
    assert any(location is not None for location in locations)
    assert _locations(loaded) == locations
