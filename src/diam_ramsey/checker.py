"""Deciding whether a coloring contains a solution chain.

A solution for sizes (m1, ..., mt) is a chain B1, B2, ..., Bt of sets of
positions with |Bi| = mi, each set monochromatic (different sets may use
different colors), max(Bi) < min(B(i+1)), and nondecreasing diameters
diam(B1) <= ... <= diam(Bt). The strict variant replaces <= by <.

Three independent routes decide existence:

* exists_solution: a suffix dynamic program over (stage, start position)
  for stages 2..t, linear in N per stage, then the canonical witness walk,
  whose stage-1 step decides existence. The last stage needs no room
  after it, so its sweep reads only each color's last position; the
  earlier stages sweep two pointers down. A row holds only the starts
  from which its stages fit, so a row's length is where it ends: the last
  row ends at its last usable start, and an earlier one before the next
  row's end, since a set ending there leaves no room for the later
  stages. The walk scans ends only while the row it reads goes on, and
  to N at stage t.
* IncrementalState: a forward dynamic program maintained position by
  position, built for the search engine's extend/retract loop. Its rows
  are preallocated, extend updates only the stages up to one past the
  last satisfiable one, and retract is O(1). Once stages 1..t-1 are
  satisfiable, extend checks stage t first; when it closes, extend
  returns True having written nothing, so only avoiding extends are
  retracted.
* brute_force_exists: backtracking straight from the definition, capped
  at small N, kept as the reference oracle for the other two.

All routes exploit one observation: a monochromatic m-set with minimum i,
maximum j and color k exists exactly when i and j both have color k and
at least m positions of color k lie in [i, j]. Only (min, max, color)
triples matter, so each stage tracks minimal end positions and minimal
diameters rather than explicit subsets.

One routine, _least_set, finds the monochromatic m-set of least
(max, diam) starting at or after a point with at least a given diameter.
It has two callers: the witness walk of exists_solution (one call per
stage, which must leave room for the later stages) and the lemma big
set (lemmas._big_set, and lemmas._walk on prefixes). It takes no room
at the walk's last stage and for the big set, and returns the set as a
(max, min, color) triple.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .coloring import Coloring, IntSet, _require_colors, _require_int
from .errors import OracleCapError

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

DEFAULT_ORACLE_CAP = 20


@dataclass(frozen=True)
class ProblemSpec:
    """The problem instance: set sizes, color count, and diameter mode.

    sizes holds (m1, ..., mt) with every mi >= 2; num_colors is r >= 2;
    strict, a bool, selects strictly increasing diameters instead of
    nondecreasing.
    """

    sizes: tuple[int, ...]
    num_colors: int
    strict: bool = False

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "sizes", tuple(self.sizes))
        except TypeError:
            raise ValueError(
                f"sizes must be a sequence of set sizes, got {self.sizes!r}"
            ) from None
        if len(self.sizes) < 1:
            raise ValueError("need at least one set size")
        for m in self.sizes:
            _require_int(m, "set size")
            if m < 2:
                raise ValueError(f"set sizes must be at least 2, got {m}")
        _require_colors(self.num_colors)
        if not isinstance(self.strict, bool):
            raise ValueError(f"strict must be a bool, got {self.strict!r}")

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


def _require_same_colors(c: Coloring, spec: ProblemSpec) -> None:
    """The ValueError for a coloring whose color count is not spec's."""
    if c.num_colors != spec.num_colors:
        raise ValueError(
            f"coloring has {c.num_colors} colors, spec wants {spec.num_colors}"
        )


def validate_witness(w: Witness, c: Coloring, spec: ProblemSpec) -> None:
    """Re-check a witness against the raw definition, raising on failure.

    Deliberately shares no code with the solver engines beyond the
    argument check: works straight from the chain conditions so it can
    serve as an independent referee.
    """
    _require_same_colors(c, spec)
    if len(w.sets) != spec.t:
        raise ValueError(f"expected {spec.t} sets, got {len(w.sets)}")
    digits = c.digits
    n = len(digits)
    for idx, (s, k) in enumerate(zip(w.sets, w.colors)):
        if len(s) != spec.sizes[idx]:
            raise ValueError(
                f"set {idx + 1} has {len(s)} elements, "
                f"expected {spec.sizes[idx]}"
            )
        if s.max > n:
            raise ValueError(f"set {idx + 1} leaves the interval [1,{n}]")
        # Elements are positive and at most n, so each indexes the digits.
        for p in s.elements:
            if digits[p - 1] != k:
                raise ValueError(
                    f"set {idx + 1} is not monochromatic of color {k} "
                    f"(position {p} has color {digits[p - 1]})"
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
        c._positions[c.digits[i - 1]][a : a + m - 1] + (e,)
    )


def _suffix_table(c: Coloring, spec: ProblemSpec) -> list[list[int] | None]:
    """Build S[s][p] = max diam(B_s) over chains of stages s..t in [p, N]
    for s = 2..t.

    Row s holds only the starts p = 1..live_s from which such a chain
    exists, so a row's length is where it ends: len(S[s]) = live_s + 1,
    every cell from 1 on is at least 1 (a diameter), and cell 0 is never
    read. Rows 0 and 1 are empty and S[t+1] is None (no later stage): the
    witness walk reads only S[s+1] at stage s, and its stage-1 call
    decides what S[1][1] would.
    Each stage is one sweep of p down to 1: O(N + r). The last stage has
    no later stage to leave room for, so a start's best end is the last
    position of its color, if enough of that color lie from the start on.
    The stages before it move two pointers, which only move down. The
    ranks of the positions within their colors come from c.

    Row t ends at `live`, its last usable start: the largest
    L_k[len(L_k) - m_t]. If row s+1 ends at `live`, a stage-s set ending
    at j needs j + 1 <= live, and its start lies below j: row s ends below
    `live`, and its sweep and its pointers start at live - 1. Row s's own
    `live` is where its `best` first turns positive, and the row is cut
    there. Each row is nonincreasing from p = 1 on.
    """
    digits = c.digits
    t = spec.t
    pos = c._positions
    rank = c._rank

    off = 1 if spec.strict else 0
    S = [[], []] + [None] * t
    if t == 1:
        return S
    # Stage t: a start p of color k is usable when at least m_t positions
    # of color k lie in [p, N], that is rank[p] <= len(L_k) - m_t.
    ends = [L[-1] if L else 0 for L in pos]
    top = [len(L) - spec.sizes[t - 1] for L in pos]
    live = max([L[i] for L, i in zip(pos, top) if i >= 0], default=0)
    cur = S[t] = [-1] * (live + 1)
    best = -1
    for p in range(live, 0, -1):
        k = digits[p - 1]
        if rank[p] <= top[k] and ends[k] - p > best:
            best = ends[k] - p
        cur[p] = best
    for s in range(t - 1, 1, -1):
        ms1 = spec.sizes[s - 1] - 1
        nxt = S[s + 1]
        cur = S[s] = [-1] * (live + 1)
        # j: the largest end whose remaining interval still supports the
        # later stages, g(j) = j - S[s+1][j+1] <= p - off. g is increasing
        # in j, so j only falls as p falls; once j < p no end can be
        # usable, so it may stop at p.
        j = live - 1
        # last[k]: index in pos[k] of the last color-k position <= j,
        # moved only when color k comes up.
        last = [bisect.bisect_right(L, j) - 1 for L in pos]
        best = -1
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
        del cur[live + 1 :]
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

    With a suffix-table row `room` (S[s+1] for stage s), an end e also needs
    room to go on at e + 1, that is e < len(room) - 1, and min >= e -
    room[e+1] + off. With room None (S[t+1], or the big set) ends run to
    N. Ends are scanned upward from the first that can close a set; the
    largest usable min at an end gives its least diameter. An end's index
    among its color's positions is its rank in c.
    """
    digits = c.digits
    rank = c._rank
    pos = c._positions
    stop = len(digits) + 1 if room is None else len(room) - 1
    m1 = m - 1
    first = lo + (req if req > m1 else m1)
    for e in range(first, stop):
        ei = rank[e]
        if ei < m1:
            continue
        k = digits[e - 1]
        L = pos[k]
        # The min leaves m color-k positions in [min, e] and fits low..hi.
        hi = L[ei - m1]
        if hi > e - req:
            hi = e - req
        low = lo
        if room is not None:
            low = e - room[e + 1] + off
            if low < lo:
                low = lo
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
    The stage-1 call answers whether any chain exists: it finds a set
    exactly when stages 2..t fit after some stage-1 set. A later stage
    always finds one, since the table promised it. Runs in O(t * (N + r))
    for the table plus the walk, never by subset enumeration.

    Args:
        c: the coloring to check; c.num_colors must equal spec.num_colors.
        spec: the problem instance.

    Returns:
        The canonical Witness, or None when the coloring avoids solutions.
    """
    _require_same_colors(c, spec)
    S = _suffix_table(c, spec)
    off = 1 if spec.strict else 0
    sets: list[IntSet] = []
    set_colors: list[int] = []
    lo, req = 1, 0
    for s, ms in enumerate(spec.sizes, 1):
        found = _least_set(c, ms, lo, req, S[s + 1], off)
        if found is None:
            assert s == 1, "suffix table promised feasibility"
            return None
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
    _require_same_colors(c, spec)
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
    that doubles when full. The prefix always avoids: an extend whose
    color would close a solution returns True and changes nothing.

    _k counts the stages satisfiable inside the prefix, at most t-1. A
    stage-s set ending at p needs stage s-1 satisfiable before its min, so
    one more position can make at most stage k+1 satisfiable: extend
    updates stages 1..k+1 only. retract is O(1): it drops the last
    position, un-counts a stage that first became satisfiable there, and
    leaves the rows alone. Cells past the prefix or above stage k+1 are
    never read: extend reads a stage s <= k+1 only at positions of the
    prefix that it wrote for stage s, or set to _INF when stage s-1
    became satisfiable.

    The update of stage s at p reads only cells below p. So once k = t-1,
    extend scans stage t first, against row t-1 from first[t-1] on,
    before it appends anything, and returns True as soon as a set closes.
    Every size is at least 2, so a closing set's min is a position of its
    color before p, and the scan never needs p in that color's positions.
    Row t only takes the _INF that stage t-1 leaves when it becomes
    satisfiable: nothing reads it, but that write needs no branch. Row 0
    is all 0 (the empty chain before stage 1), read only when t = 1: every
    set's diameter is at least 1, so 0 sets no floor even when strict.

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
        # _m[s][p] = M[s][p] for s = 1..t and p below the capacity.
        self._m: list[list[int]] = [[0] * 32] + [
            [_INF] * 32 for _ in range(spec.t)
        ]
        # First position where stage s became satisfiable, for s <= _k;
        # starts at or below it cannot host stages 1..s (s < t).
        self._first_finite: list[int] = [0] + [_INF] * (spec.t - 1)
        self._k = 0

    @property
    def length(self) -> int:
        return len(self._digits)

    def extend(self, color: int) -> bool:
        """Append one position and return False, or return True and change
        nothing when the prefix plus color contains a solution."""
        k = self._k
        # Check before appending, so that a rejected color leaves no trace.
        try:
            if not 0 <= color < self._r:
                raise ValueError(
                    f"color {color} out of range 0..{self._r - 1}"
                )
            Lx = self._pos[color]
        except TypeError:
            raise ValueError(f"color {color!r} is not an integer") from None
        digits = self._digits
        p = len(digits) + 1
        rows = self._m
        sizes = self._sizes
        first = self._first_finite
        off = self._off
        top = k + 1
        if top == self._t:
            # The closing stage goes first; a solution skips the rest. A
            # set has at least 2 members, so its min lies in Lx before p.
            prev = rows[k]
            idx = len(Lx) + 1 - sizes[k]
            lo = first[k]
            while idx >= 0:
                i = Lx[idx]
                if i <= lo:
                    break
                if prev[i - 1] + off <= p - i:
                    return True
                idx -= 1
            top = k
        digits.append(color)
        Lx.append(p)
        have = len(Lx)
        if p == len(rows[1]):
            rows[0] += [0] * p
            for row in rows[1:]:
                row += [_INF] * p
        # Stage 1 has no chain before it: the largest start wins.
        row = rows[1]
        best = row[p - 1]
        idx = have - sizes[0]
        if idx >= 0 and p - Lx[idx] < best:
            best = p - Lx[idx]
        row[p] = best
        for s in range(2, top + 1):
            prev = row
            row = rows[s]
            best = row[p - 1]
            idx = have - sizes[s - 1]
            if idx >= 0:
                # Starts at or below `lo` cannot improve on `best` or
                # cannot host a finished prefix chain.
                lo = p - best
                if lo < first[s - 1]:
                    lo = first[s - 1]
                while idx >= 0:
                    i = Lx[idx]
                    if i <= lo:
                        break
                    if prev[i - 1] + off <= p - i:
                        best = p - i
                        break
                    idx -= 1
            row[p] = best
        if top == k or best == _INF:
            return False
        # Stage k+1 < t became satisfiable at p.
        self._k = top
        first[top] = p
        # Stage k+2 was not updated at p; the next extend starts from here.
        rows[top + 1][p] = _INF
        return False

    def retract(self) -> None:
        """Remove the last position, undoing the last avoiding extend."""
        digits = self._digits
        if not digits:
            raise ValueError("cannot retract an empty state")
        k = self._k
        p = len(digits)
        self._pos[digits.pop()].pop()
        if self._first_finite[k] == p:
            self._k = k - 1
