"""Colorings, integer sets, and the run-length codec."""

from __future__ import annotations

import random

import pytest

from diam_ramsey import (
    Coloring,
    ColoringParseError,
    IntSet,
    format_run_string,
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


def test_positions_and_counts() -> None:
    c = parse_run_string("0^210^3", 2)  # 001000
    assert c.positions_of(0) == (1, 2, 4, 5, 6)
    assert c.positions_of(1) == (3,)


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


# ======================================================================
# run-length codec
# ======================================================================

def test_parse_glossary_example() -> None:
    # 0^210^3 denotes 001000: the exponent stops at the color digit 1.
    assert parse_run_string("0^210^3", 2).digits == (0, 0, 1, 0, 0, 0)
    assert parse_run_string("0^210^3").digits == (0, 0, 1, 0, 0, 0)


def test_parse_bare_exponent_swallows_non_colors() -> None:
    # With two colors the digit 2 cannot start a run, so 0^12 is twelve 0s.
    assert parse_run_string("0^12", 2).digits == (0,) * 12
    # Without a declared palette the 2 reads as a color.
    c = parse_run_string("0^12")
    assert c.digits == (0, 2) and c.num_colors == 3


def test_parse_braced_exponent() -> None:
    assert parse_run_string("0^{21}", 2).digits == (0,) * 21
    assert parse_run_string("1^{2}0", 2).digits == (1, 1, 0)


def test_parse_whitespace_and_inference() -> None:
    assert parse_run_string(" 0^2 1 0^3 ", 2).digits == (0, 0, 1, 0, 0, 0)
    assert parse_run_string("01").num_colors == 2
    assert parse_run_string("012").num_colors == 3


def test_parse_errors_carry_token_and_offset() -> None:
    with pytest.raises(ColoringParseError) as exc:
        parse_run_string("0^0", 2)
    assert exc.value.token == "0^0"
    assert exc.value.offset == 0

    with pytest.raises(ColoringParseError) as exc:
        parse_run_string("01x", 2)
    assert exc.value.token == "x"
    assert exc.value.offset == 2

    with pytest.raises(ColoringParseError):
        parse_run_string("", 2)
    with pytest.raises(ColoringParseError):
        parse_run_string("0^", 2)
    with pytest.raises(ColoringParseError):
        parse_run_string("0^{", 2)
    with pytest.raises(ColoringParseError):
        parse_run_string("0^{}", 2)
    with pytest.raises(ColoringParseError):
        parse_run_string("3", 2)  # digit out of declared range
    with pytest.raises(ColoringParseError):
        parse_run_string("01", 12)  # codec palette cap


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
        # inference agrees whenever every color is actually used
        if len(set(c.digits)) == r or (r == 2 and max(c.digits, default=0) <= 1):
            assert parse_run_string(s) == c
