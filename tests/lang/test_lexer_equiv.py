"""One-pattern lexer == the character-at-a-time reference scanner.

``repro.lang.lexer.tokenize`` is one compiled ``re`` alternation with a
running line counter fed by its trivia matches; ``lexer_reference.py``
(beside this file) is the original ``_peek``/``_advance`` scanner, kept
as the executable specification.  Both run on the five kernels, 140 generated
programs over every fuzz profile, the barrier ladder, ``tests/data/sb.ms``
and a list of hostile strings: tokens are compared field by field
(including ``type(value)``), errors by class, text and location.  Two
one-line mutants of the production lexer must fail the same comparison:
``\\s`` for the explicit ASCII whitespace class (on a form feed), and a
line counter that skips the newlines inside block comments.
"""

import inspect
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.errors import LexError
from repro.fuzz.progen import PROFILES, generate_program
from repro.lang import lexer
from tests.helpers import barrier_ladder
from tests.lang import lexer_reference

#: seeds per profile; 7 profiles x 20 = 140 generated programs.
SEEDS_PER_PROFILE = 20

HOSTILE = [
    "/* never closed",
    "/*/",
    "/**/",
    "/* a */ /* b",
    "a /* x\n y */ b // tail",
    "/*\n\n*/\tx\r\n// end",
    "// only a comment",
    "1.",
    "1 .",
    ".",
    ".5",
    "1e+",
    "1e",
    "1.5e",
    "1.5e-",
    "2e-2+3E4",
    "1.2.3",
    "12abc",
    "0x10",
    "007",
    "a\r\nb\tc",
    "\n\n  x\n",
    "é",
    "x²",
    "a\fb",
    "a & b",
    "a | b",
    "a&&b||!c<=d>=e==f!=g",
    "@",
    "\"str\"",
    "a\x00b",
]


def _lex(tokenize, source):
    """The token stream as comparable fields, or the error as fields."""
    try:
        tokens = tokenize(source, "f.ms")
    except LexError as error:
        return ("error", type(error), str(error), error.location)
    return [
        (token.kind, token.location, token.value, type(token.value))
        for token in tokens
    ]


def _assert_lexers_match(source, label, tokenize=lexer.tokenize):
    expected = _lex(lexer_reference.tokenize, source)
    assert _lex(tokenize, source) == expected, label
    return expected


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_kernels_match_reference(app):
    tokens = _assert_lexers_match(app.source(8), app.name)
    assert len(tokens) > 100


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_generated_programs_match_reference(profile):
    for seed in range(SEEDS_PER_PROFILE):
        source = generate_program(seed, profile, 4, 8).source
        _assert_lexers_match(source, f"{profile}/seed={seed}")


@pytest.mark.parametrize("size", [32, 64, 128])
def test_barrier_ladder_matches_reference(size):
    assert len(_assert_lexers_match(barrier_ladder(size), size)) > size


def test_litmus_file_matches_reference():
    source = (Path(__file__).parents[1] / "data" / "sb.ms").read_text()
    _assert_lexers_match(source, "sb.ms")


@pytest.mark.parametrize("source", HOSTILE, ids=repr)
def test_hostile_strings_match_reference(source):
    _assert_lexers_match(source, repr(source))


def test_hostile_strings_cover_both_error_texts():
    errors = [
        result[2]
        for result in (_lex(lexer.tokenize, s) for s in HOSTILE)
        if result[0] == "error"
    ]
    for text in ("unterminated block comment", "unexpected character"):
        assert any(text in error for error in errors), text


def _mutant(old, new):
    """``tokenize`` from ``lexer.py`` with one source line rewritten."""
    source = inspect.getsource(lexer)
    assert source.count(old) == 1, f"stale mutation anchor: {old!r}"
    namespace = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    tokenize = namespace["tokenize"]
    _assert_lexers_match("a b", "sanity", tokenize)
    return tokenize


def test_unicode_whitespace_mutant_is_caught():
    """``\\s`` would swallow the form feed the scanner rejects."""
    tokenize = _mutant(r"[ \t\r\n]+", r"\s+")
    with pytest.raises(AssertionError):
        _assert_lexers_match("a\fb", "form feed", tokenize)


def test_comment_newline_mutant_is_caught():
    """A line counter fed only by whitespace trivia misplaces every
    token after a multi-line block comment."""
    old = r'newlines = text.count("\n")'
    tokenize = _mutant(old, old + ' if text[0] != "/" else 0')
    caught = []
    for source in HOSTILE:
        try:
            _assert_lexers_match(source, repr(source), tokenize)
        except AssertionError:
            caught.append(source)
    assert caught, "no hostile string catches the comment-newline mutant"
