"""Colorings, integer sets, and the run-length codec."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diam_ramsey import (
    Coloring,
    ColoringParseError,
    IntSet,
    format_run_string,
    formula_f_mmm2,
    lower_bound_coloring,
    lower_bound_runs,
    parse_run_string,
)


# ======================================================================
# Coloring basics
# ======================================================================

def test_coloring_basics() -> None:
    c = Coloring([0, 1, 1, 0, 2], 3)
    assert c.length == 5
    assert len(c) == 5
    assert c.num_colors == 3
    assert c.digits == (0, 1, 1, 0, 2)
    assert [c.color_at(p) for p in range(1, 6)] == [0, 1, 1, 0, 2]
    assert list(c) == [0, 1, 1, 0, 2]


def test_coloring_validation() -> None:
    with pytest.raises(ValueError):
        Coloring([0, 1, 2], 2)  # digit out of range
    with pytest.raises(ValueError):
        Coloring([0, 1], 1)
    with pytest.raises(ValueError):
        Coloring([], 2)
    c = Coloring([0], 2)
    with pytest.raises(IndexError):
        c.color_at(0)  # positions are 1-based
    with pytest.raises(IndexError):
        c.color_at(2)


def test_coloring_rejects_negative_colors() -> None:
    with pytest.raises(ValueError, match="position 2 "):
        Coloring([0, -1], 2)


def test_coloring_rejects_non_integer_colors() -> None:
    with pytest.raises(ValueError, match=r"color 1\.0 at position 2 "):
        Coloring([0, 1.0, 0], 2)
    with pytest.raises(ValueError, match="color '1' at position 1 "):
        Coloring(["1"], 2)


def test_coloring_rejects_bool_colors() -> None:
    """A bool indexes like 0 or 1, but the codec would write it True."""
    with pytest.raises(ValueError, match="color True at position 1 is not an"):
        Coloring([True, False, True], 2)
    with pytest.raises(ValueError, match="color False at position 2 is not an"):
        Coloring([1, False], 2)


def test_rank_indexes_positions_of_each_color() -> None:
    rng = random.Random(4242)
    for r in range(2, 13):
        for _ in range(20):
            digits = [rng.randrange(r) for _ in range(rng.randrange(1, 40))]
            c = Coloring(digits, r)
            for p, k in enumerate(digits, 1):
                assert c._rank[p] == c.positions_of(k).index(p)


def test_positions_and_counts() -> None:
    c = parse_run_string("0^210^3", 2)  # 001000
    assert c.positions_of(0) == (1, 2, 4, 5, 6)
    assert c.positions_of(1) == (3,)


@pytest.mark.parametrize("color", [-1, -2, 2, 3])
def test_positions_of_rejects_colors_out_of_range(color) -> None:
    """A negative color would wrap to the last colors' positions."""
    c = parse_run_string("0^210^3", 2)
    with pytest.raises(ValueError, match=f"^color {color} out of range 0..1$"):
        c.positions_of(color)


@pytest.mark.parametrize("color", [1.0, "1", None, True, False])
def test_positions_of_rejects_non_integer_colors(color) -> None:
    """A bool would index its int's row; a float or str would not index."""
    c = parse_run_string("0^210^3", 2)
    with pytest.raises(ValueError) as exc:
        c.positions_of(color)
    assert str(exc.value) == f"color must be an integer, got {color!r}"


@pytest.mark.parametrize("p", [1.0, "1", None, True])
def test_color_at_rejects_non_integer_positions(p) -> None:
    c = parse_run_string("0^210^3", 2)
    with pytest.raises(ValueError) as exc:
        c.color_at(p)
    assert str(exc.value) == f"position must be an integer, got {p!r}"


@pytest.mark.parametrize("p", [0, -1, 7])
def test_color_at_rejects_positions_out_of_range(p) -> None:
    c = parse_run_string("0^210^3", 2)
    with pytest.raises(IndexError, match=f"^position {p} outside \\[1, 6\\]$"):
        c.color_at(p)


def test_extended_is_a_new_coloring() -> None:
    c = Coloring([0, 1], 2)
    d = c.extended(0)
    assert d.digits == (0, 1, 0)
    assert c.digits == (0, 1)
    assert d.num_colors == 2


def test_coloring_equality_and_hash() -> None:
    a = Coloring([0, 1, 0], 2)
    b = parse_run_string("010", 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Coloring([0, 1, 0], 3)  # same digits, different palette
    assert len({a, b}) == 1


def test_coloring_repr_uses_run_string() -> None:
    assert "0^210^3" in repr(parse_run_string("0^210^3", 2))
    # past the codec's 10 colors the digits are shown as a tuple
    assert repr(Coloring([0, 10, 3], 11)) == (
        "Coloring((0, 10, 3), num_colors=11)"
    )


def _expand(runs) -> list:
    return [color for color, k in runs for _ in range(k)]


def _assert_same_index(c: Coloring, ref: Coloring) -> None:
    """c equals ref in digits, palette, index, == and hash."""
    assert c.digits == ref.digits
    assert c.num_colors == ref.num_colors
    for k in range(ref.num_colors):
        assert c.positions_of(k) == ref.positions_of(k)
        assert type(c.positions_of(k)) is tuple
    assert c._rank == ref._rank
    assert c == ref
    assert hash(c) == hash(ref)


def test_runs_build_matches_digits_build_on_constructions() -> None:
    """Includes the general pattern's zero-length run at m = 2."""
    for m in range(2, 61):
        for force_general in (False, True):
            runs = lower_bound_runs(m, force_general)
            ref = Coloring(_expand(runs), 2)
            _assert_same_index(Coloring._from_runs(runs, 2), ref)
            _assert_same_index(lower_bound_coloring(m, force_general), ref)
            text = format_run_string(ref)
            _assert_same_index(parse_run_string(text, 2), ref)


def test_runs_build_matches_digits_build_on_random_runs() -> None:
    """Adjacent runs of one color, zero-length runs and up to 10 colors."""
    rng = random.Random(2718)
    for _ in range(400):
        r = rng.randint(2, 10)
        runs = [
            (rng.randrange(r), rng.randrange(6))
            for _ in range(rng.randint(1, 12))
        ]
        if not _expand(runs):
            runs.append((rng.randrange(r), 1))
        ref = Coloring(_expand(runs), r)
        _assert_same_index(Coloring._from_runs(runs, r), ref)
        # The codec takes adjacent runs of one color as they are written.
        text = " ".join(f"{color}^{{{k}}}" for color, k in runs if k)
        _assert_same_index(parse_run_string(text, r), ref)
    # An empty run holds no position, so its color is never read.
    _assert_same_index(
        Coloring._from_runs([(5, 0), (1, 2)], 2), Coloring([1, 1], 2)
    )


def test_extended_copies_the_index() -> None:
    rng = random.Random(3141)
    for _ in range(200):
        r = rng.randint(2, 10)
        digits = tuple(rng.randrange(r) for _ in range(rng.randint(1, 30)))
        c = Coloring(digits, r)
        for x in range(r):
            _assert_same_index(c.extended(x), Coloring(digits + (x,), r))
        _assert_same_index(c, Coloring(digits, r))  # the parent is untouched


@pytest.mark.parametrize(
    "runs, num_colors",
    [
        ([(0, 2), (2, 1)], 2),  # out of range at the run's first position
        ([(1, 1), (-1, 3)], 2),
        ([(0, 1), (2.5, 2)], 2),
        ([(0, 1), (1.0, 2)], 2),  # not an integer
        ([(0, 0), ("1", 1)], 2),
        ([(0, 0), (1, 0)], 2),  # no positions
        ([(0, 3)], 1),
        ([(0, 1), (True, 2)], 2),  # a bool
        ([(False, 1)], 2),
    ],
)
def test_runs_build_raises_the_digits_build_errors(runs, num_colors) -> None:
    with pytest.raises(ValueError) as expected:
        Coloring(_expand(runs), num_colors)
    with pytest.raises(ValueError) as exc:
        Coloring._from_runs(runs, num_colors)
    assert str(exc.value) == str(expected.value)


@pytest.mark.parametrize("x", [2, -1, 1.0, 0.5, "1", None, True, False])
def test_extended_raises_the_digits_build_errors(x) -> None:
    c = Coloring([0, 1, 1], 2)
    with pytest.raises(ValueError) as expected:
        Coloring(c.digits + (x,), 2)
    with pytest.raises(ValueError) as exc:
        c.extended(x)
    assert str(exc.value) == str(expected.value)


# Only totals above sys.maxsize: a smaller huge total passes the check and
# the build then tries to allocate it.
_HUGE = sys.maxsize + 1


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: parse_run_string(f"0^{{{_HUGE}}}", 2), _HUGE),
        (lambda: parse_run_string(f"1 0^{{{sys.maxsize}}}", 2), _HUGE),
        (lambda: lower_bound_coloring(_HUGE), formula_f_mmm2(_HUGE) - 1),
    ],
    ids=["one-run", "two-runs", "construction"],
)
def test_a_length_past_sys_maxsize_is_refused(build, n) -> None:
    """Refused with a ValueError naming the length, not an OverflowError
    from the index build."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == (
        f"coloring length {n} exceeds sys.maxsize ({sys.maxsize})"
    )


# ======================================================================
# IntSet
# ======================================================================

def test_intset_invariants() -> None:
    s = IntSet([4, 1, 2])
    assert s.elements == (1, 2, 4)
    assert s.min == 1 and s.max == 4
    assert 2 in s and 3 not in s
    assert len(s) == 3
    with pytest.raises(ValueError):
        IntSet([])
    with pytest.raises(ValueError):
        IntSet([0, 1])  # positions start at 1
    with pytest.raises(ValueError):
        IntSet([2, 2])
    for bad in ([2.0, 3], [1.5], ["1"], [True, 2], [False]):
        with pytest.raises(ValueError, match="must be an integer"):
            IntSet(bad)


# ======================================================================
# run-length codec
# ======================================================================

def test_parse_glossary_example() -> None:
    # 0^210^3 denotes 001000: the exponent stops at the color digit 1.
    assert parse_run_string("0^210^3", 2).digits == (0, 0, 1, 0, 0, 0)
    assert parse_run_string("0^210^3", 3).digits == (0, 0, 1, 0, 0, 0)


def test_parse_bare_exponent_swallows_non_colors() -> None:
    # With two colors the digit 2 cannot start a run, so 0^12 is twelve 0s.
    assert parse_run_string("0^12", 2).digits == (0,) * 12
    # With three colors the 2 reads as a color.
    c = parse_run_string("0^12", 3)
    assert c.digits == (0, 2) and c.num_colors == 3


def test_parse_braced_exponent() -> None:
    assert parse_run_string("0^{21}", 2).digits == (0,) * 21
    assert parse_run_string("1^{2}0", 2).digits == (1, 1, 0)


def test_parse_whitespace_and_inference() -> None:
    """The palette is the one given, never inferred from the digits."""
    assert parse_run_string(" 0^2 1 0^3 ", 2).digits == (0, 0, 1, 0, 0, 0)
    assert parse_run_string("01", 3).num_colors == 3
    assert parse_run_string("0", 10).num_colors == 10


# (input, palette, message, token, offset): every error kind the parser has
PARSE_ERRORS = [
    ("01x", 2, "expected a color digit", "x", 2),
    ("0^", 2, "exponent missing after '^'", "0^", 0),
    ("0^x", 2, "exponent missing after '^'", "0^", 0),
    ("0^{", 2, "unclosed '{' in exponent", "0^{", 0),
    ("1 0^{123", 2, "unclosed '{' in exponent", "0^{123", 2),
    ("0^{}", 2, "braced exponent must be digits", "0^{}", 0),
    ("0^{a}", 2, "braced exponent must be digits", "0^{a}", 0),
    ("0^0", 2, "run length must be at least 1", "0^0", 0),
    ("0^{0}", 2, "run length must be at least 1", "0^{0}", 0),
    ("3", 2, "color digit 3 out of range 0..1", "3", 0),
    ("", 2, "empty coloring string", "", 0),
    # only ASCII 0-9 are digits, though str.isdigit and int() take more
    ("\u00b2", 2, "expected a color digit", "\u00b2", 0),
    ("0^\u00b2", 2, "exponent missing after '^'", "0^", 0),
    ("0^1\u00b2", 2, "expected a color digit", "\u00b2", 3),
    ("\u0663", 2, "expected a color digit", "\u0663", 0),
    ("0^{\u0663}", 2, "braced exponent must be digits", "0^{\u0663}", 0),
    ("0^1\u0663", 2, "expected a color digit", "\u0663", 3),
]


@pytest.mark.parametrize(
    "s,num_colors,message,token,offset",
    PARSE_ERRORS,
    ids=[f"{s or 'empty'}-{r}" for s, r, *_ in PARSE_ERRORS],
)
def test_parse_errors_carry_token_and_offset(
    s: str, num_colors: int, message: str, token: str, offset: int
) -> None:
    with pytest.raises(ColoringParseError) as exc:
        parse_run_string(s, num_colors)
    err = exc.value
    assert (err.args, err.token, err.offset) == ((message,), token, offset)
    assert str(err) == f"{message} (token {token!r} at offset {offset})"


@pytest.mark.parametrize("num_colors", [0, 1, 11, 12], ids=lambda r: f"01-{r}")
def test_parse_names_a_color_count_outside_the_codec(num_colors: int) -> None:
    """A palette the codec cannot take is a ValueError naming the count,
    as Coloring and format_run_string raise, not a fault in the string."""
    with pytest.raises(ValueError) as exc:
        parse_run_string("01", num_colors)
    assert not isinstance(exc.value, ColoringParseError)
    if num_colors < 2:
        assert str(exc.value) == f"need at least 2 colors, got {num_colors}"
    else:
        assert str(exc.value) == (
            f"codec supports at most 10 colors, got {num_colors}"
        )


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    st.text(alphabet="0123456789^{} x", max_size=12),
    st.sampled_from(range(1, 13)),
)
def test_parse_error_token_sits_at_its_offset(s: str, num_colors) -> None:
    try:
        parse_run_string(s, num_colors)
    except ColoringParseError as err:
        assert s[err.offset : err.offset + len(err.token)] == err.token
    except ValueError:
        assert not 2 <= num_colors <= 10


def test_format_maximal_runs() -> None:
    assert format_run_string(Coloring([0, 0, 1, 0, 0, 0], 2)) == "0^210^3"
    assert format_run_string(Coloring([0, 1, 0], 2)) == "010"
    assert format_run_string(Coloring([1] * 13, 2)) == "1^{13}"


def test_codec_roundtrip_random() -> None:
    rng = random.Random(1734)
    for _ in range(300):
        r = rng.choice([2, 2, 3, 4, 10])
        n = rng.randrange(1, 60)
        c = Coloring([rng.randrange(r) for _ in range(n)], r)
        s = format_run_string(c)
        assert parse_run_string(s, r) == c
        # the same digits under every larger palette the codec takes
        for wider in range(r + 1, 11):
            assert parse_run_string(s, wider).digits == c.digits
