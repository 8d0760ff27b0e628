"""Colorings of integer intervals and element-selection primitives.

A coloring assigns one of r colors (numbered 0..r-1) to every position of
the interval [1, N]. Colorings are immutable: searches and checkers treat
them as values. Construction also indexes the coloring: the ascending
positions of each color, and the rank of every position among them.
Coloring(digits, r) indexes one position at a time, which suits short
runs. Colorings that come as runs (parse_run_string and the lower-bound
constructions) are indexed a run at a time and keep the starts of their
maximal runs, which the checker's run sweep reads. Coloring.extended
copies its parent's index and adds the one new position; it passes the
run starts on, with the new position joining the last run or starting
one, and a coloring built from digits has none to pass.

The compact string notation writes a coloring as a sequence of runs, e.g.
"0^210^3" for 001000: a digit names the color, an optional ^k repeats it.
The formatter always emits maximal runs with no whitespace; the parser is
more liberal and accepts whitespace between runs and multi-digit
exponents.
"""

from __future__ import annotations

import sys
from itertools import groupby
from typing import Iterable, Iterator

from .errors import ColoringParseError

__all__ = [
    "Coloring",
    "IntSet",
    "parse_run_string",
    "format_run_string",
]

# Colors representable in the string codec: single digits 0-9.
MAX_CODEC_COLORS = 10


class Coloring:
    """An immutable coloring of [1, N] with colors 0..r-1.

    Positions are 1-based throughout to match the interval conventions of
    the functions being computed.
    """

    __slots__ = ("_digits", "_num_colors", "_positions", "_rank", "_runs")

    def __init__(self, digits: Iterable[int], num_colors: int) -> None:
        seq = tuple(digits)
        _check_shape(len(seq), num_colors)
        table: list[list[int]] = [[] for _ in range(num_colors)]
        # _rank[p]: the index of p among its color's positions; 0 unused.
        rank = [0]
        for p, color in enumerate(seq, 1):
            row = _row(table, color, p)
            rank.append(len(row))
            row.append(p)
        self._digits: tuple[int, ...] = seq
        self._num_colors = num_colors
        self._positions = tuple(map(tuple, table))
        self._rank = rank
        # _runs: the start of each maximal run, or None (built from digits).
        self._runs = None

    @classmethod
    def _from_runs(
        cls, runs: Iterable[tuple[int, int]], num_colors: int
    ) -> "Coloring":
        """The coloring of (color, length) runs, indexed a run at a time,
        with the starts of its maximal runs.

        Lengths may be 0; such runs are skipped, and adjacent runs of one
        color make one maximal run. Raises the ValueError
        Coloring(digits, num_colors) raises for the same digits, and a
        ValueError naming a total length above sys.maxsize, which no
        tuple can hold.
        """
        runs = [(color, k) for color, k in runs if k]
        n = sum(k for _color, k in runs)
        _check_shape(n, num_colors)
        if n > sys.maxsize:
            raise ValueError(
                f"coloring length {n} exceeds sys.maxsize ({sys.maxsize})"
            )
        table: list[list[int]] = [[] for _ in range(num_colors)]
        rank = [0]
        digits: list[int] = []
        starts: list[int] = []
        p = 1
        for color, k in runs:
            row = _row(table, color, p)
            if not digits or digits[-1] != color:
                starts.append(p)
            have = len(row)
            row += range(p, p + k)
            rank += range(have, have + k)
            digits += (color,) * k
            p += k
        return cls._indexed(
            tuple(digits), num_colors, tuple(map(tuple, table)), rank,
            tuple(starts),
        )

    @classmethod
    def _indexed(cls, digits, num_colors, positions, rank, runs) -> "Coloring":
        """A Coloring over an index that is already built."""
        self = object.__new__(cls)
        self._digits = digits
        self._num_colors = num_colors
        self._positions = positions
        self._rank = rank
        self._runs = runs
        return self

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def length(self) -> int:
        return len(self._digits)

    @property
    def num_colors(self) -> int:
        return self._num_colors

    @property
    def digits(self) -> tuple[int, ...]:
        """The colors position by position (index 0 is position 1)."""
        return self._digits

    def color_at(self, p: int) -> int:
        """Color of position p, 1-based."""
        _require_int(p, "position")
        if not 1 <= p <= len(self._digits):
            raise IndexError(f"position {p} outside [1, {len(self._digits)}]")
        return self._digits[p - 1]

    def positions_of(self, color: int) -> tuple[int, ...]:
        """All positions of `color`, ascending."""
        _require_int(color, "color")
        if not 0 <= color < self._num_colors:
            raise ValueError(
                f"color {color} out of range 0..{self._num_colors - 1}"
            )
        return self._positions[color]

    def extended(self, color: int) -> "Coloring":
        """A new coloring with `color` appended at position N+1.

        The index is this one's with the new position added to its color,
        and a coloring with run starts gets them too, one more when color
        starts a run.
        """
        p = len(self._digits) + 1
        table = list(self._positions)
        row = _row(table, color, p)
        table[color] = row + (p,)
        runs = self._runs
        if runs is not None and color != self._digits[-1]:
            runs += (p,)
        return Coloring._indexed(
            self._digits + (color,), self._num_colors, tuple(table),
            self._rank + [len(row)], runs,
        )

    # ------------------------------------------------------------------
    # dunder plumbing

    def __len__(self) -> int:
        return len(self._digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._digits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return (
            self._num_colors == other._num_colors
            and self._digits == other._digits
        )

    def __hash__(self) -> int:
        return hash((self._num_colors, self._digits))

    def __repr__(self) -> str:
        if self._num_colors <= MAX_CODEC_COLORS:
            body = repr(format_run_string(self))
        else:
            body = repr(self._digits)
        return f"Coloring({body}, num_colors={self._num_colors})"


def _require_int(value: object, name: str) -> None:
    """Raise ValueError unless value is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_count(value: object, name: str, least: int) -> None:
    """Raise ValueError unless value is an integer >= least."""
    _require_int(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _require_colors(num_colors: object) -> None:
    """Raise ValueError unless num_colors is an integer >= 2."""
    _require_int(num_colors, "num_colors")
    if num_colors < 2:
        raise ValueError(f"need at least 2 colors, got {num_colors}")


def _check_shape(n: int, num_colors: int) -> None:
    """Raise ValueError unless n positions and num_colors colors can form
    a coloring."""
    _require_colors(num_colors)
    if not n:
        raise ValueError("coloring must cover at least one position")


def _row(table: list, color: object, p: int):
    """table[color], or the ValueError for color at position p."""
    try:
        if color.__class__ is bool:  # it indexes, but the codec writes True
            raise TypeError
        if 0 <= color < len(table):
            return table[color]
    except TypeError:  # the range check admits 1.0; table[1.0] fails
        raise ValueError(
            f"color {color!r} at position {p} is not an integer"
        ) from None
    raise ValueError(
        f"color {color} at position {p} out of range 0..{len(table) - 1}"
    )


class IntSet:
    """An immutable set of distinct positive integers, kept sorted.

    IntSet(elements) sorts and checks its elements. IntSet._from_sorted
    takes a tuple that is already sorted, distinct and positive, such as a
    slice of Coloring.positions_of, and checks nothing: a caller that
    cannot promise all three must use IntSet(...).
    """

    __slots__ = ("_elems",)

    def __init__(self, elements: Iterable[int]) -> None:
        elems = tuple(elements)
        for x in elems:
            _require_int(x, "IntSet element")
        elems = tuple(sorted(elems))
        if not elems:
            raise ValueError("IntSet must be nonempty")
        prev = 0
        for x in elems:
            if x < 1:
                raise ValueError(f"elements must be positive, got {x}")
            if x == prev:
                raise ValueError(f"duplicate element {x}")
            prev = x
        self._elems = elems

    @classmethod
    def _from_sorted(cls, elems: tuple[int, ...]) -> "IntSet":
        """The IntSet of a tuple already sorted, distinct and positive."""
        self = object.__new__(cls)
        self._elems = elems
        return self

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elems

    @property
    def min(self) -> int:
        return self._elems[0]

    @property
    def max(self) -> int:
        return self._elems[-1]

    def __len__(self) -> int:
        return len(self._elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elems)

    def __contains__(self, x: object) -> bool:
        return x in self._elems

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntSet):
            return self._elems == other._elems
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._elems)

    def __repr__(self) -> str:
        return f"IntSet({{{', '.join(map(str, self._elems))}}})"


# ======================================================================
# run-length string codec
# ======================================================================

def _is_digits(s: str) -> bool:
    """Whether s is nonempty and all ASCII 0-9 (str.isdigit alone takes "²")."""
    return s.isascii() and s.isdigit()


def _parse_error(s: str, start: int, end: int, message: str) -> ColoringParseError:
    """The error naming s[start:end] as its token, at offset start."""
    return ColoringParseError(message, token=s[start:end], offset=start)


def parse_run_string(s: str, num_colors: int) -> Coloring:
    """Parse run-length notation like "0^210^3" into a Coloring.

    A token is one run: a color digit with an optional exponent ("1",
    "0^2", "0^{21}"); whitespace between tokens is ignored. The flat
    notation is ambiguous where an exponent runs into the next color
    digit, so two exponent forms exist:

    * braced: ^{k} with k >= 1, always unambiguous ("0^{21}");
    * bare: ^ then one digit, extended greedily only by digits that
      cannot be colors (>= num_colors). With two colors "0^210^3" is
      001000 (the 1 after ^2 is a color) while "0^12" is twelve zeros
      (the 2 cannot be a color, so it extends the exponent).

    Raises:
        ColoringParseError: on a malformed token, a zero exponent, a digit
            outside 0..num_colors-1, or an empty string; the error carries
            the offending slice of s as its token (in a bad run, the run
            read so far or the one character that cannot start it) and the
            offset where that slice starts.
        ValueError: num_colors is not an integer, or lies outside
            2..MAX_CODEC_COLORS; the message names it, as Coloring's and
            format_run_string's do.
    """
    _require_colors(num_colors)
    _require_codec(num_colors)
    runs: list[tuple[int, int]] = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if not _is_digits(ch):
            raise _parse_error(s, i, i + 1, "expected a color digit")
        color = int(ch)
        start = i
        i += 1
        count = 1
        if i < n and s[i] == "^":
            i += 1
            if i < n and s[i] == "{":
                j = s.find("}", i + 1)
                if j < 0:
                    raise _parse_error(s, start, n, "unclosed '{' in exponent")
                body = s[i + 1 : j]
                if not _is_digits(body):
                    raise _parse_error(
                        s, start, j + 1, "braced exponent must be digits"
                    )
                count = int(body)
                i = j + 1
            else:
                if i == n or not _is_digits(s[i]):
                    raise _parse_error(s, start, i, "exponent missing after '^'")
                j = i + 1
                while j < n and _is_digits(s[j]) and int(s[j]) >= num_colors:
                    j += 1
                count = int(s[i:j])
                i = j
            if count == 0:
                raise _parse_error(s, start, i, "run length must be at least 1")
        if color >= num_colors:
            raise _parse_error(
                s, start, i,
                f"color digit {color} out of range 0..{num_colors - 1}",
            )
        runs.append((color, count))
    if not runs:
        raise _parse_error(s, 0, n, "empty coloring string")
    return Coloring._from_runs(runs, num_colors)


def _require_codec(num_colors: int) -> None:
    """Raise ValueError unless format_run_string can write this many colors."""
    if num_colors > MAX_CODEC_COLORS:
        raise ValueError(
            f"codec supports at most {MAX_CODEC_COLORS} colors, "
            f"got {num_colors}"
        )


def format_run_string(c: Coloring) -> str:
    """Canonical run-length form: maximal runs, ^k only for k >= 2.

    Runs of 10 or more use the braced exponent ("1^{13}"): a bare "1^13"
    is thirteen 1s at up to three colors but a 1 then a 3 at four or
    more, and the output must re-parse the same way at every color count.
    """
    _require_codec(c.num_colors)
    parts: list[str] = []
    for color, run in groupby(c.digits):
        k = len(list(run))
        if k == 1:
            parts.append(str(color))
        elif k <= 9:
            parts.append(f"{color}^{k}")
        else:
            parts.append(f"{color}^{{{k}}}")
    return "".join(parts)
