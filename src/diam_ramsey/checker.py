"""Deciding whether a coloring contains a solution chain.

A solution for sizes (m1, ..., mt) is a chain B1, B2, ..., Bt of sets of
positions with |Bi| = mi, each set monochromatic (different sets may use
different colors), max(Bi) < min(B(i+1)), and nondecreasing diameters
diam(B1) <= ... <= diam(Bt). The strict variant replaces <= by <.

Three independent routes decide existence:

* exists_solution: a suffix dynamic program over (stage, start position),
  linear in N per stage; also extracts the canonical witness. The last
  stage needs no room after it, so its sweep reads only each color's last
  position; the earlier stages sweep two pointers down. Each sweep covers
  only its live prefix: the last row is _NEG (no chain) past its last
  usable start, and an earlier row is _NEG from the next row's last
  non-_NEG start on, since a set there leaves no room for the later
  stages. The cells skipped are _NEG anyway, so no row changes.
* IncrementalState: a forward dynamic program maintained position by
  position, built for the search engine's extend/retract loop. Its rows
  are preallocated, extend updates only the stages up to one past the
  last satisfiable one, and retract is O(1).
* brute_force_exists: backtracking straight from the definition, capped
  at small N, kept as the reference oracle for the other two.

All routes exploit one observation: a monochromatic m-set with minimum i,
maximum j and color k exists exactly when i and j both have color k and
at least m positions of color k lie in [i, j]. Only (min, max, color)
triples matter, so each stage tracks minimal end positions and minimal
diameters rather than explicit subsets.

One routine, _least_set, finds the monochromatic m-set of least
(max, diam) starting at or after a point with at least a given diameter.
It serves the witness walk of exists_solution (one call per stage, which
must leave room for the later stages) and the lemma big set of
lemmas.find_extremal_b1, classify_lemma21 and check_lemma22.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .coloring import Coloring, IntSet, _require_int
from .errors import FlaggedStateError, OracleCapError

__all__ = [
    "ProblemSpec",
    "Witness",
    "validate_witness",
    "exists_solution",
    "brute_force_exists",
    "IncrementalState",
]

# Forward DP sentinel: "no set of this stage ends at or before here".
_INF = 1 << 40
# Suffix DP sentinels: "no feasible chain" / "no constraint".
_NEG = -(1 << 40)
_POS = 1 << 40

DEFAULT_ORACLE_CAP = 20


@dataclass(frozen=True)
class ProblemSpec:
    """The problem instance: set sizes, color count, and diameter mode.

    sizes holds (m1, ..., mt) with every mi >= 2; num_colors is r >= 2;
    strict selects strictly increasing diameters instead of nondecreasing.
    """

    sizes: tuple[int, ...]
    num_colors: int
    strict: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 1:
            raise ValueError("need at least one set size")
        for m in self.sizes:
            _require_int(m, "set size")
            if m < 2:
                raise ValueError(f"set sizes must be at least 2, got {m}")
        _require_int(self.num_colors, "num_colors")
        if self.num_colors < 2:
            raise ValueError(f"need at least 2 colors, got {self.num_colors}")

    @property
    def t(self) -> int:
        return len(self.sizes)

    def label(self) -> str:
        """Display form such as "f(2,2,2;2)" or "f*(2,2;4)"."""
        name = "f*" if self.strict else "f"
        return f"{name}({','.join(map(str, self.sizes))};{self.num_colors})"

    def to_json(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "num_colors": self.num_colors,
            "strict": self.strict,
        }


@dataclass(frozen=True)
class Witness:
    """A solution chain: the sets in order plus the color of each set."""

    sets: tuple[IntSet, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sets) != len(self.colors):
            raise ValueError("one color per set required")

    @property
    def diams(self) -> tuple[int, ...]:
        return tuple(s.max - s.min for s in self.sets)

    def to_json(self) -> dict:
        return {
            "sets": [list(s.elements) for s in self.sets],
            "colors": list(self.colors),
            "diams": list(self.diams),
        }


def validate_witness(w: Witness, c: Coloring, spec: ProblemSpec) -> None:
    """Re-check a witness against the raw definition, raising on failure.

    Deliberately shares no code with the solver engines: works straight
    from the chain conditions so it can serve as an independent referee.
    """
    if len(w.sets) != spec.t:
        raise ValueError(f"expected {spec.t} sets, got {len(w.sets)}")
    for idx, (s, k) in enumerate(zip(w.sets, w.colors)):
        if len(s) != spec.sizes[idx]:
            raise ValueError(
                f"set {idx + 1} has {len(s)} elements, "
                f"expected {spec.sizes[idx]}"
            )
        if s.max > c.length:
            raise ValueError(f"set {idx + 1} leaves the interval [1,{c.length}]")
        for p in s:
            if c.color_at(p) != k:
                raise ValueError(
                    f"set {idx + 1} is not monochromatic of color {k} "
                    f"(position {p} has color {c.color_at(p)})"
                )
    for idx in range(spec.t - 1):
        if not w.sets[idx].max < w.sets[idx + 1].min:
            raise ValueError(f"set {idx + 1} does not precede set {idx + 2}")
        d0 = w.sets[idx].max - w.sets[idx].min
        d1 = w.sets[idx + 1].max - w.sets[idx + 1].min
        if spec.strict:
            if not d0 < d1:
                raise ValueError(
                    f"diameters must strictly increase: {d0} !< {d1}"
                )
        elif not d0 <= d1:
            raise ValueError(f"diameters must not decrease: {d0} !<= {d1}")


# ======================================================================
# polynomial existence check + canonical witness
# ======================================================================

def _members(c: Coloring, i: int, e: int, m: int) -> IntSet:
    """The m-set with min i and max e, which share a color with at least m
    of its positions in [i, e]: i, the next m-2 from i's rank in c, e."""
    a = c._rank[i]
    return IntSet._from_sorted(
        c.positions_of(c.digits[i - 1])[a : a + m - 1] + (e,)
    )


def _suffix_table(c: Coloring, spec: ProblemSpec) -> list[list[int]]:
    """Build S[s][p] = max diam(B_s) over chains of stages s..t in [p, N].

    S[s][p] is _NEG when no such chain exists and the row s = t+1 is _POS
    (no constraint). Each stage is one sweep of p down to 1: O(N + r).
    The last stage has no later stage to leave room for, so a start's
    best end is the last position of its color, if enough of that color
    lie from the start on. The stages before it move two pointers, which
    only move down. The ranks of the positions within their colors come
    from c.

    Each sweep covers only its live prefix. Row t is _NEG past `live`,
    its last usable start: the largest L_k[len(L_k) - m_t]. If row s+1 is
    _NEG past `live`, a stage-s set ending at j needs S[s+1][j+1] >= 0, so
    j < live and its start lies below j: row s is _NEG from `live` on, and
    its sweep and its pointers start at live - 1. Row s's own `live` is
    where its `best` first turns >= 0. The cells skipped keep the _NEG
    they start with, so each row is what a sweep from N would write.
    """
    digits = c.digits
    n = len(digits)
    t = spec.t
    pos = [c.positions_of(k) for k in range(spec.num_colors)]
    rank = c._rank

    off = 1 if spec.strict else 0
    S = [[_NEG] * (n + 3) for _ in range(t + 2)]
    S[t + 1] = [_POS] * (n + 3)
    # Stage t: a start p of color k is usable when at least m_t positions
    # of color k lie in [p, N], that is rank[p] <= len(L_k) - m_t.
    cur = S[t]
    ends = [L[-1] if L else 0 for L in pos]
    top = [len(L) - spec.sizes[t - 1] for L in pos]
    live = max([L[i] for L, i in zip(pos, top) if i >= 0], default=0)
    best = _NEG
    for p in range(live, 0, -1):
        k = digits[p - 1]
        if rank[p] <= top[k] and ends[k] - p > best:
            best = ends[k] - p
        cur[p] = best
    for s in range(t - 1, 0, -1):
        ms1 = spec.sizes[s - 1] - 1
        nxt = S[s + 1]
        cur = S[s]
        # j: the largest end whose remaining interval still supports the
        # later stages, g(j) = j - S[s+1][j+1] <= p - off. g is increasing
        # in j, so j only falls as p falls; once j < p no end can be
        # usable, so it may stop at p.
        j = live - 1
        # last[k]: index in pos[k] of the last color-k position <= j,
        # moved only when color k comes up.
        last = [bisect.bisect_right(L, j) - 1 for L in pos]
        best = _NEG
        live = 0
        for p in range(j, 0, -1):
            lim = p - off
            while j > p and j - nxt[j + 1] > lim:
                j -= 1
            k = digits[p - 1]
            L = pos[k]
            idx = last[k]
            # p itself is a color-k position <= j, so idx stops at rank[p].
            while L[idx] > j:
                idx -= 1
            last[k] = idx
            # The end L[idx] is usable if [p, L[idx]] holds ms color-k
            # positions.
            if idx >= rank[p] + ms1 and L[idx] - p > best:
                if best < 0:
                    live = p
                best = L[idx] - p
            cur[p] = best
    return S


def _least_set(
    c: Coloring,
    m: int,
    lo: int,
    req: int,
    room: list[int] | None = None,
    off: int = 0,
) -> tuple[int, int, int] | None:
    """The monochromatic m-set in [lo, N] with diam >= req and least
    (max, diam), as (max, min, color); None when there is none.

    With a suffix-table row `room` (S[s+1] for stage s), an end e also
    needs min >= e - room[e+1] + off, which fails for _NEG and always
    holds for _POS. Ends are scanned upward from the first that can close
    a set; the largest usable min at an end gives its least diameter. An
    end's index among the positions of its color is its rank in c.
    """
    digits = c.digits
    rank = c._rank
    pos = [c.positions_of(k) for k in range(c.num_colors)]
    first = lo + max(req, m - 1)
    for e in range(first, len(digits) + 1):
        k = digits[e - 1]
        L = pos[k]
        ei = rank[e]
        if ei + 1 < m:
            continue
        # The min leaves m color-k positions in [min, e] and fits low..hi.
        hi = min(L[ei + 1 - m], e - req)
        low = lo if room is None else max(lo, e - room[e + 1] + off)
        if hi < low:
            continue
        idx = bisect.bisect_right(L, hi) - 1
        if idx >= 0 and L[idx] >= low:
            return (e, L[idx], k)
    return None


def exists_solution(c: Coloring, spec: ProblemSpec) -> Witness | None:
    """Return the canonical witness if the coloring contains a solution.

    The canonical witness minimizes (max B1, diam B1, max B2, diam B2, ...)
    lexicographically; at equal (max, diam) the color is forced (it is the
    color of the max position) and the remaining elements are the smallest
    available ones. Each stage is one _least_set call: the least set after
    the previous one, with diam at least the previous diam (plus one when
    strict), that leaves room for the later stages by the suffix table.
    Runs in O(t * (N + r)) for the table plus the walk, never by subset
    enumeration.

    Args:
        c: the coloring to check; c.num_colors must equal spec.num_colors.
        spec: the problem instance.

    Returns:
        The canonical Witness, or None when the coloring avoids solutions.
    """
    if c.num_colors != spec.num_colors:
        raise ValueError(
            f"coloring has {c.num_colors} colors, spec wants {spec.num_colors}"
        )
    S = _suffix_table(c, spec)
    if S[1][1] < 0:
        return None

    off = 1 if spec.strict else 0
    sets: list[IntSet] = []
    set_colors: list[int] = []
    lo, req = 1, 0
    for s, ms in enumerate(spec.sizes, 1):
        found = _least_set(c, ms, lo, req, S[s + 1], off)
        assert found is not None, "suffix table promised feasibility"
        e, i, k = found
        sets.append(_members(c, i, e, ms))
        set_colors.append(k)
        lo, req = e + 1, e - i + off
    return Witness(sets=tuple(sets), colors=tuple(set_colors))


# ======================================================================
# brute-force reference oracle
# ======================================================================

def brute_force_exists(c: Coloring, spec: ProblemSpec) -> Witness | None:
    """Existence by direct backtracking over candidate chains.

    Intended for testing only: raises OracleCapError on colorings longer
    than DEFAULT_ORACLE_CAP. Each candidate set is described by its (min,
    max, color) triple, which is lossless for existence since any
    monochromatic m-set shrinks to one with the same min, max, and color.
    The returned witness is the first one found in scan order, with no
    canonicality promise.
    """
    if c.length > DEFAULT_ORACLE_CAP:
        raise OracleCapError(
            f"oracle capped at N <= {DEFAULT_ORACLE_CAP}, got N = {c.length}"
        )
    if c.num_colors != spec.num_colors:
        raise ValueError(
            f"coloring has {c.num_colors} colors, spec wants {spec.num_colors}"
        )
    pos = [c.positions_of(k) for k in range(spec.num_colors)]
    off = 1 if spec.strict else 0
    t = spec.t
    chain: list[tuple[int, int, int]] = []

    def rec(stage: int, lo: int, need: int) -> bool:
        if stage == t:
            return True
        m = spec.sizes[stage]
        for k in range(spec.num_colors):
            L = pos[k]
            for ai, i in enumerate(L):
                if i < lo:
                    continue
                for aj in range(ai + m - 1, len(L)):
                    j = L[aj]
                    if j - i < need:
                        continue
                    chain.append((i, j, k))
                    if rec(stage + 1, j + 1, j - i + off):
                        return True
                    chain.pop()
        return False

    if not rec(0, 1, 0):
        return None
    return Witness(
        sets=tuple(
            _members(c, i, j, spec.sizes[stage])
            for stage, (i, j, _k) in enumerate(chain)
        ),
        colors=tuple(k for _i, _j, k in chain),
    )


# ======================================================================
# incremental interface for the search engine
# ======================================================================

class IncrementalState:
    """Forward solution check maintained while a coloring grows.

    Keeps M[s][p] = minimal diam(B_s) over chains of stages 1..s inside
    [1, p] for the prefix built so far, in one preallocated row per stage
    that doubles when full. The prefix contains a solution exactly when
    M[t][p] is finite, at which point the state is flagged and must not be
    extended further (retract first).

    _k counts the stages satisfiable inside the prefix; the state is
    flagged when it reaches t. A stage-s set ending at p needs stage s-1
    satisfiable before its min, so one more position can make at most
    stage k+1 satisfiable: extend updates stages 1..k+1 only. retract is
    O(1): it drops the last position, un-counts a stage that first became
    satisfiable there, and leaves the rows alone.
    Cells past the prefix or above stage k+1 are stale and never read:
    extend reads a stage s <= k+1 only at positions of the prefix that it
    wrote for stage s, or set to _INF when stage s-1 became satisfiable.

    Single-owner by design: extend and retract mutate in place.
    """

    __slots__ = (
        "_r", "_t", "_sizes", "_off",
        "_digits", "_pos", "_m", "_first_finite", "_k",
    )

    def __init__(self, spec: ProblemSpec) -> None:
        self._r = spec.num_colors
        self._t = spec.t
        self._sizes = spec.sizes
        self._off = 1 if spec.strict else 0
        self._digits: list[int] = []
        self._pos: list[list[int]] = [[] for _ in range(spec.num_colors)]
        # _m[s][p] = M[s][p] for s = 1..t and p below the capacity; _m[0]
        # is unused.
        self._m: list[list[int]] = [[]] + [[_INF] * 32 for _ in range(spec.t)]
        # First position where stage s became satisfiable, for s <= _k;
        # starts at or below it cannot host stages 1..s.
        self._first_finite: list[int] = [0] + [_INF] * spec.t
        self._k = 0

    @property
    def length(self) -> int:
        return len(self._digits)

    @property
    def flagged(self) -> bool:
        return self._k == self._t

    def extend(self, color: int) -> bool:
        """Append one position; returns True when a solution now exists."""
        if self._k == self._t:
            raise FlaggedStateError(
                "state already contains a solution; retract before extending"
            )
        if not 0 <= color < self._r:
            raise ValueError(f"color {color} out of range 0..{self._r - 1}")
        # Index before appending, so that a rejected color leaves no trace.
        try:
            Lx = self._pos[color]
        except TypeError:
            raise ValueError(f"color {color!r} is not an integer") from None
        digits = self._digits
        digits.append(color)
        p = len(digits)
        Lx.append(p)
        have = len(Lx)
        rows = self._m
        if p == len(rows[1]):
            for row in rows[1:]:
                row += [_INF] * p
        sizes = self._sizes
        # Stage 1 has no chain before it: the largest start wins.
        row = rows[1]
        best = row[p - 1]
        idx = have - sizes[0]
        if idx >= 0 and p - Lx[idx] < best:
            best = p - Lx[idx]
        row[p] = best
        first = self._first_finite
        off = self._off
        for s in range(2, self._k + 2):
            prev = row
            row = rows[s]
            best = row[p - 1]
            idx = have - sizes[s - 1]
            if idx >= 0:
                # Starts at or below `lo` cannot improve on `best` or
                # cannot host a finished prefix chain.
                lo = max(p - best, first[s - 1])
                while idx >= 0:
                    i = Lx[idx]
                    if i <= lo:
                        break
                    if prev[i - 1] + off <= p - i:
                        best = p - i
                        break
                    idx -= 1
            row[p] = best
        if best == _INF:
            return False
        # Stage k+1 became satisfiable at p.
        k = self._k = self._k + 1
        first[k] = p
        if k == self._t:
            return True
        # Stage k+1 was not updated at p; the next extend starts from here.
        rows[k + 1][p] = _INF
        return False

    def retract(self) -> None:
        """Remove the last position, undoing the matching extend."""
        digits = self._digits
        if not digits:
            raise ValueError("cannot retract an empty state")
        p = len(digits)
        self._pos[digits.pop()].pop()
        if self._first_finite[self._k] == p:
            self._k -= 1
