"""Colorings of integer intervals and element-selection primitives.

A coloring assigns one of r colors (numbered 0..r-1) to every position of
the interval [1, N]. Colorings are immutable: searches and checkers treat
them as values. The ascending positions of each color are built lazily
on first use.

The compact string notation writes a coloring as a sequence of runs, e.g.
"0^210^3" for 001000: a digit names the color, an optional ^k repeats it.
The formatter always emits maximal runs with no whitespace; the parser is
more liberal and accepts whitespace between runs and multi-digit
exponents.
"""

from __future__ import annotations

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

    __slots__ = ("_digits", "_num_colors", "_positions")

    def __init__(self, digits: Iterable[int], num_colors: int) -> None:
        seq = tuple(digits)
        if not seq:
            raise ValueError("coloring must cover at least one position")
        if num_colors < 2:
            raise ValueError(f"need at least 2 colors, got {num_colors}")
        for idx, color in enumerate(seq):
            if not 0 <= color < num_colors:
                raise ValueError(
                    f"color {color} at position {idx + 1} out of range "
                    f"0..{num_colors - 1}"
                )
        self._digits: tuple[int, ...] = seq
        self._num_colors = num_colors
        self._positions: tuple[tuple[int, ...], ...] | None = None

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
        if not 1 <= p <= len(self._digits):
            raise IndexError(f"position {p} outside [1, {len(self._digits)}]")
        return self._digits[p - 1]

    def positions_of(self, color: int) -> tuple[int, ...]:
        """All positions of `color`, ascending."""
        if self._positions is None:
            table: list[list[int]] = [[] for _ in range(self._num_colors)]
            for idx, c in enumerate(self._digits):
                table[c].append(idx + 1)
            self._positions = tuple(tuple(row) for row in table)
        return self._positions[color]

    def extended(self, color: int) -> "Coloring":
        """A new coloring with `color` appended at position N+1."""
        return Coloring(self._digits + (color,), self._num_colors)

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


class IntSet:
    """An immutable set of distinct positive integers, kept sorted."""

    __slots__ = ("_elems",)

    def __init__(self, elements: Iterable[int]) -> None:
        elems = tuple(sorted(elements))
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

def _parse_error(s: str, start: int, end: int, message: str) -> ColoringParseError:
    """The error naming s[start:end] as its token, at offset start."""
    return ColoringParseError(message, token=s[start:end], offset=start)


def parse_run_string(s: str, num_colors: int | None = None) -> Coloring:
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

    When `num_colors` is omitted it is inferred as one more than the
    largest digit present, floored at 2; bare exponents are then a single
    digit, since any digit could be a color.

    Raises:
        ColoringParseError: on a malformed token, a zero exponent, a digit
            outside 0..num_colors-1, or an empty string; the error carries
            the offending slice of s as its token (in a bad run, the run
            read so far or the one character that cannot start it) and the
            offset where that slice starts.
    """
    if num_colors is not None and not 2 <= num_colors <= MAX_CODEC_COLORS:
        raise _parse_error(
            s, 0, 8,
            f"codec supports 2..{MAX_CODEC_COLORS} colors, got {num_colors}",
        )
    digits: list[int] = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if not ch.isdigit():
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
                    raise _parse_error(s, start, start + 4, "unclosed '{' in exponent")
                body = s[i + 1 : j]
                if not body.isdigit():
                    raise _parse_error(
                        s, start, j + 1, "braced exponent must be digits"
                    )
                count = int(body)
                i = j + 1
            else:
                if i == n or not s[i].isdigit():
                    raise _parse_error(s, start, i, "exponent missing after '^'")
                j = i + 1
                while (
                    num_colors is not None
                    and j < n
                    and s[j].isdigit()
                    and int(s[j]) >= num_colors
                ):
                    j += 1
                count = int(s[i:j])
                i = j
            if count == 0:
                raise _parse_error(s, start, i, "run length must be at least 1")
        if num_colors is not None and color >= num_colors:
            raise _parse_error(
                s, start, i,
                f"color digit {color} out of range 0..{num_colors - 1}",
            )
        digits.extend([color] * count)
    if not digits:
        raise _parse_error(s, 0, n, "empty coloring string")
    if num_colors is None:
        num_colors = max(2, max(digits) + 1)
    return Coloring(digits, num_colors)


def _require_codec(num_colors: int) -> None:
    """Raise ValueError unless format_run_string can write this many colors."""
    if num_colors > MAX_CODEC_COLORS:
        raise ValueError(
            f"codec supports at most {MAX_CODEC_COLORS} colors, "
            f"got {num_colors}"
        )


def format_run_string(c: Coloring) -> str:
    """Canonical run-length form: maximal runs, ^k only for k >= 2.

    Runs of 10 or more use the braced exponent ("1^{13}") so the output
    re-parses identically with or without an explicit color count.
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
