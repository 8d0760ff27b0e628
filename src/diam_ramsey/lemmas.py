"""Executable structure checks for 2-colorings of [1, 3m-2].

Everything here revolves around the extremal big set of a coloring: a
monochromatic m-set with diameter at least 2m-2 chosen to minimize
(max, diam) lexicographically. Writing max = 3m-2-beta and
diam = 2m-2+alpha, the window R = [1, 3m-2-beta] around it is tightly
constrained:

* lemma 2.1: Delta restricted to R, re-read so the big set's color is
  called 1, matches one of three explicit run patterns (cases i/ii/iii);
* lemma 2.2: further monochromatic m-sets with small diameters exist
  inside prefixes of R (and when no big set exists at all, two disjoint
  constant runs of length m do).

The validators either produce the promised structure or raise
LemmaViolationError, so sweeping all 2^(3m-2) colorings machine-checks
both statements. Case frequencies from the sweeps feed the CLI histogram.

The public functions check their arguments and raise ValueError on a bad
one: find_extremal_b1, classify_lemma21 and check_lemma22 take (c, m)
and get the big set from one call, _big_set, which checks the window (an
integer m >= 2 and a 2-coloring of length 3m-2) and then calls
checker._least_set; sweep_lemmas checks m and workers. The private
core, _classify and _check_lemma22, trusts its caller for the window,
takes the big set as the (max, min, color) triple _least_set returns and
returns plain tuples. Only the public functions build result objects:
find_extremal_b1 an ExtremalB1, and classify_lemma21 and check_lemma22 a
Lemma21Case or a Lemma22Finding through the builders _case and _finding.
The sweep walks the colorings depth first (_walk), so the big set found
on a prefix serves every completion below it, checks each coloring with
_check_lemma22 and tallies straight from its tuple.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterator

from .checker import _least_set, _members
from .coloring import Coloring, IntSet, _require_count, format_run_string
from .errors import LemmaViolationError
from .search import _SPLIT_DEPTH, _job_results

__all__ = [
    "ExtremalB1",
    "Lemma21Case",
    "Lemma22Finding",
    "LemmaSweepReport",
    "find_extremal_b1",
    "classify_lemma21",
    "check_lemma22",
    "sweep_lemmas",
]


@dataclass(frozen=True)
class ExtremalB1:
    """The extremal big set and its window offsets.

    beta is how far max(b1) sits below 3m-2; alpha is the diameter excess
    over 2m-2.
    """

    b1: IntSet
    color_c1: int
    beta: int
    alpha: int


@dataclass(frozen=True)
class Lemma21Case:
    """Which structural case the window matches.

    case_tag is the first match in the order (i), (ii), (iii); mask lists
    every case that matches (the cases overlap). mu, nu and h_strings come
    from the matcher that set the tag. mu and nu are the run parameters of
    case (i), 0 when the tag is a different case. h_strings holds the
    variable substrings of the matched pattern, at the offsets the matcher
    tested, as (name, relabeled digits, (start, end)) with 1-based
    positions in R; an empty substring carries (start, start-1).
    """

    case_tag: str
    mask: tuple[str, ...]
    mu: int
    nu: int
    h_strings: tuple[tuple[str, str, tuple[int, int]], ...]


@dataclass(frozen=True)
class Lemma22Finding:
    """The sets promised by lemma 2.2 for one coloring.

    case is the lemma 2.1 case the bounds were read from (None on the
    no_big_set branch).
    """

    branch: str  # "no_big_set" | "big_set"
    d1: IntSet | None = None
    d2: IntSet | None = None
    a1: IntSet | None = None
    a2: IntSet | None = None
    a3: IntSet | None = None
    case: Lemma21Case | None = None


def _big_set(c: Coloring, m: int) -> tuple[int, int, int] | None:
    """Check the window (c, m), then return the (max, min, color) triple
    of its extremal big set, or None when it has none."""
    _require_count(m, "m", 2)
    if c.num_colors != 2:
        raise ValueError(f"expected a 2-coloring, got {c.num_colors} colors")
    if c.length != 3 * m - 2:
        raise ValueError(
            f"expected a coloring of [1, {3 * m - 2}] for m = {m}, "
            f"got length {c.length}"
        )
    return _least_set(c, m, 1, 2 * m - 2)


def find_extremal_b1(c: Coloring, m: int) -> ExtremalB1 | None:
    """The big set minimizing (max, diam), or None when no big set exists.

    The returned set is the deterministic representative: its minimum,
    then the smallest positions of its color, then its maximum.
    """
    found = _big_set(c, m)
    if found is None:
        return None
    j, i, color = found
    beta, alpha = _offsets(m, found)
    return ExtremalB1(
        b1=_members(c, i, j, m), color_c1=color, beta=beta, alpha=alpha
    )


def _offsets(m: int, found: tuple[int, int, int]) -> tuple[int, int]:
    """(beta, alpha) of the big set with (max, min, color) found."""
    j, i, _color = found
    return (3 * m - 2) - j, (j - i) - (2 * m - 2)


# ======================================================================
# case matching (all in the frame where the big set's color reads as 1)
# ======================================================================

# _FRAMES[k] maps the color bytes 0 and 1 to "1" for color k, else "0".
_FRAMES = (bytes.maketrans(b"\0\1", b"10"), bytes.maketrans(b"\0\1", b"01"))


def _frame(c: Coloring, m: int, beta: int, k: int) -> str:
    """Delta(R) as a digit string with color k relabeled to 1,
    R = [1, 3m-2-beta]."""
    return bytes(c.digits[: 3 * m - 2 - beta]).translate(_FRAMES[k]).decode()


_Match = tuple[int, int, tuple[tuple[str, str, tuple[int, int]], ...]]


def _match_case_i(s: str, m: int, beta: int, alpha: int) -> _Match | None:
    """First (nu, mu, (H0, H1)) reading s as 1^(m-1-beta-nu) H0 0 H1 1^(1+nu)."""
    r_len = len(s)
    if beta > m - 2 or s.count("0") < m:
        return None
    if beta == m - 1 - alpha:
        pairs = [(nu, mu) for nu in range(m - beta) for mu in range(m - alpha)]
    else:
        pairs = [(0, 0)]
    # nu < m-beta, mu < m-alpha and beta <= m-2 keep all three lengths >= 0.
    for nu, mu in pairs:
        pre = m - 1 - beta - nu
        h0_len = m - 1 + beta - mu
        h1_len = m - 2 - beta + mu
        assert pre + h0_len + 1 + h1_len + 1 + nu == r_len
        if not (
            s.startswith("1" * pre)
            and s[pre + h0_len] == "0"
            and s.endswith("1" * (1 + nu))
        ):
            continue
        h0 = s[pre : pre + h0_len]
        h1 = s[pre + h0_len + 1 : r_len - 1 - nu]
        if h0.count("1") != m - 1 - alpha - mu or h1.count("1") != mu:
            continue
        return nu, mu, (
            ("H0", h0, (pre + 1, pre + h0_len)),
            ("H1", h1, (pre + h0_len + 2, r_len - 1 - nu)),
        )
    return None


def _match_case_ii(s: str, m: int, beta: int, alpha: int) -> _Match | None:
    """(0, 0, (H2,)) when s reads as 0^(m-alpha-beta-1) 1 H2 1^(m-beta)."""
    if not (beta < m - 1 - alpha or beta == m - 1):
        return None
    zeros = m - alpha - beta - 1
    h2_len = m - 2 + beta + alpha
    assert zeros + 1 + h2_len + (m - beta) == len(s)
    if not (s.startswith("0" * zeros + "1") and s.endswith("1" * (m - beta))):
        return None
    if beta <= m - 2 and s.count("0") < m:
        return None
    h2 = s[zeros + 1 : zeros + 1 + h2_len]
    if alpha > 0 and h2.count("1") != beta - 1:
        return None
    return (0, 0, (("H2", h2, (zeros + 2, zeros + 1 + h2_len)),))


def _match_case_iii(s: str, m: int, beta: int, alpha: int) -> _Match | None:
    """(0, 0, ()) when the first m ones sit early with few zeros between."""
    if beta < alpha or s.count("0") >= m:
        return None
    ones = [x + 1 for x, v in enumerate(s) if v == "1"]
    if ones[m - 1] > 3 * m - 3 - beta - alpha:
        return None
    # [ones[0], ones[m-1]] holds exactly m ones; the rest are zeros.
    if ones[m - 1] - ones[0] + 1 - m > beta:
        return None
    return (0, 0, ())


def classify_lemma21(c: Coloring, m: int) -> Lemma21Case | None:
    """Match the window of c's extremal big set against the three cases,
    or None when c has no big set.

    The frame relabels colors so that the big set's color reads as 1. The
    tag is the first matching case in the order (i), (ii), (iii); the mask
    lists every match. nu, mu and h_strings come from the matcher that set
    the tag, at the offsets it tested.

    Raises:
        LemmaViolationError: no case matches. This would falsify the
            statement being validated and must abort loudly.
    """
    big = _big_set(c, m)
    return None if big is None else _case(*_classify(c, m, big))


def _classify(
    c: Coloring, m: int, found: tuple[int, int, int]
) -> tuple[tuple[str, ...], _Match]:
    """(mask, match) of classify_lemma21 on a window _big_set accepts, for
    the big set of c with (max, min, color) found; match is what the
    tag's matcher returned. No match raises LemmaViolationError: the
    caller vouches that the big set is extremal."""
    beta, alpha = _offsets(m, found)
    s = _frame(c, m, beta, found[2])
    matches = {
        "i": _match_case_i(s, m, beta, alpha),
        "ii": _match_case_ii(s, m, beta, alpha),
        "iii": _match_case_iii(s, m, beta, alpha),
    }
    mask = tuple(tag for tag, match in matches.items() if match)
    if not mask:
        raise LemmaViolationError(
            f"no structural case matches {format_run_string(c)} "
            f"(m={m}, beta={beta}, alpha={alpha})",
            coloring=c,
            clause="lemma 2.1: disjunction (i)/(ii)/(iii)",
        )
    return mask, matches[mask[0]]


def _case(mask: tuple[str, ...], match: _Match) -> Lemma21Case:
    """The Lemma21Case of _classify's (mask, match)."""
    nu, mu, h_strings = match
    return Lemma21Case(
        case_tag=mask[0], mask=mask, mu=mu, nu=nu, h_strings=h_strings
    )


# ======================================================================
# lemma 2.2: promised small-diameter sets
# ======================================================================

def _min_diam_mset(
    c: Coloring, m: int, lo: int, hi: int
) -> tuple[IntSet, int] | None:
    """A monochromatic m-set within [lo, hi] of minimal diameter.

    Ties resolve toward the smaller maximum, then the smaller color, so
    the returned set is deterministic.
    """
    best: tuple[int, int, int, int] | None = None  # (diam, max, color, index)
    for k in (0, 1):
        L = c._positions[k]
        end = bisect.bisect_right(L, hi)
        for a in range(bisect.bisect_left(L, lo), end - m + 1):
            key = (L[a + m - 1] - L[a], L[a + m - 1], k, a)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    d, _mx, k, a = best
    return IntSet._from_sorted(c._positions[k][a : a + m]), d


def check_lemma22(c: Coloring, m: int) -> Lemma22Finding:
    """Produce the sets lemma 2.2 promises, or raise LemmaViolationError.

    Without a big set the promise is two disjoint constant runs of length
    m (diameter exactly m-1). With a big set it is monochromatic m-sets of
    bounded diameter inside [1, 3m-2-alpha-beta]; which bounds apply
    depends on the lemma 2.1 cases the coloring matches, read from the
    full case mask.
    """
    return _finding(*_check_lemma22(c, m, _big_set(c, m)))


def _check_lemma22(
    c: Coloring, m: int, big: tuple[int, int, int] | None
) -> tuple[tuple[str, ...] | None, _Match | None, IntSet, IntSet | None]:
    """(mask, match, x, y) of check_lemma22 on a window _big_set accepts,
    whose big set _least_set(c, m, 1, 2m-2) the caller passes as big.
    Without a big set mask and match are None and (x, y) = (D1, D2);
    with one, (mask, match) is _classify's and (x, y) = (the A-set, A3 or
    None)."""
    if big is None:
        # A constant run of length m is exactly an m-set of diameter m-1,
        # and the earliest one has the least max.
        n = 3 * m - 2
        d1 = _min_diam_mset(c, m, 1, n)
        d2 = None if d1 is None else _min_diam_mset(c, m, d1[0].max + 1, n)
        if d1 is None or d2 is None or d1[1] != m - 1 or d2[1] != m - 1:
            raise LemmaViolationError(
                f"no big set in {format_run_string(c)}, yet no two disjoint "
                f"constant runs of length {m} exist",
                coloring=c,
                clause="lemma 2.2: no_big_set branch",
            )
        return None, None, d1[0], d2[0]

    mask, match = _classify(c, m, big)
    beta, alpha = _offsets(m, big)
    limit = 3 * m - 2 - alpha - beta
    bound_a1 = 2 * m - 2 - alpha
    if "iii" in mask or (alpha >= 1 and "ii" in mask):
        bound_a1 = min(bound_a1, m - 1 + beta)
    if "i" in mask:
        bound_a1 = min(bound_a1, 2 * m - 2 - alpha - match[1])
    bound_a2 = m + (m - 1 + beta) // 2 - 1

    found = _min_diam_mset(c, m, 1, limit)
    if found is None or found[1] > bound_a1 or found[1] > bound_a2:
        got = "none" if found is None else str(found[1])
        raise LemmaViolationError(
            f"minimal monochromatic {m}-set diameter within [1,{limit}] is "
            f"{got}, exceeding a bound (A1 <= {bound_a1}, A2 <= {bound_a2}) "
            f"for {format_run_string(c)}",
            coloring=c,
            clause="lemma 2.2: big_set diameter bounds",
        )

    a3: IntSet | None = None
    if "i" in mask:
        inner = _min_diam_mset(c, m, 1, m + alpha + beta)
        if inner is None or inner[1] > m + alpha + beta - 1:
            raise LemmaViolationError(
                f"case (i) promises a monochromatic {m}-set within "
                f"[1,{m + alpha + beta}] of diameter <= {m + alpha + beta - 1} "
                f"for {format_run_string(c)}",
                coloring=c,
                clause="lemma 2.2: big_set A3 bound",
            )
        a3 = inner[0]
    return mask, match, found[0], a3


def _finding(
    mask: tuple[str, ...] | None,
    match: _Match | None,
    x: IntSet,
    y: IntSet | None,
) -> Lemma22Finding:
    """The Lemma22Finding of _check_lemma22's (mask, match, x, y)."""
    if mask is None:
        return Lemma22Finding(branch="no_big_set", d1=x, d2=y)
    return Lemma22Finding(
        branch="big_set", case=_case(mask, match), a1=x, a2=x, a3=y
    )


# ======================================================================
# exhaustive sweeps
# ======================================================================

@dataclass
class LemmaSweepReport:
    m: int
    total: int
    case_counts: dict[str, int]    # no_b1 / i / ii / iii (first-match tags)
    branch_counts: dict[str, int]  # no_big_set / big_set
    # Always 0 (the colors never tie); kept for the CLI's text and JSON.
    ties: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def _walk(
    m: int, part: int, parts: int
) -> Iterator[tuple[Coloring, tuple[int, int, int] | None]]:
    """(c, _least_set(c, m, 1, 2m-2)) for the 2-colorings c of [1, 3m-2]
    in part `part` of `parts`, in lex order.

    The walk is depth first, and each child is its prefix's extended(x).
    The prefixes of length min(3m-2, _SPLIT_DEPTH) are dealt in DFS order,
    the i-th to part i % parts, as _search_from deals them. The big set's
    max is the first position where any big set ends, so the shortest
    prefix that holds a big set already holds the extremal one: a prefix
    of length >= 2m-1 calls _least_set only while its own prefixes found
    none, and passes what it finds to every completion below it.
    """
    n = 3 * m - 2
    split = min(n, _SPLIT_DEPTH)
    dealt = 0
    stack = [(Coloring((x,), 2), None) for x in (1, 0)]
    while stack:
        c, big = stack.pop()
        p = len(c)
        if p == split:
            mine = dealt % parts == part
            dealt += 1
            if not mine:
                continue
        if big is None and p >= 2 * m - 1:
            big = _least_set(c, m, 1, 2 * m - 2)
        if p == n:
            yield c, big
        else:
            stack += ((c.extended(1), big), (c.extended(0), big))


def _sweep_range(args: tuple[int, int, int]) -> Counter:
    """Tags and branches of the colorings _walk(m, part, parts) yields."""
    m, part, parts = args
    tally: Counter = Counter()
    for c, big in _walk(m, part, parts):
        mask = _check_lemma22(c, m, big)[0]
        if mask is None:
            tally["no_b1"] += 1
            tally["no_big_set"] += 1
        else:
            tally[mask[0]] += 1
            tally["big_set"] += 1
    return tally


def sweep_lemmas(m: int, workers: int = 1) -> LemmaSweepReport:
    """Validate both lemmas over every 2-coloring of [1, 3m-2].

    Any violation raises LemmaViolationError out of this function; a
    returned report therefore certifies zero violations and carries the
    case and branch frequencies.
    """
    _require_count(m, "m", 2)
    _require_count(workers, "workers", 1)
    with _job_results(_sweep_range, (m,), workers) as results:
        tally = sum(results, Counter())
    return LemmaSweepReport(
        m=m,
        total=1 << (3 * m - 2),
        case_counts={k: tally[k] for k in ("no_b1", "i", "ii", "iii")},
        branch_counts={k: tally[k] for k in ("no_big_set", "big_set")},
    )
