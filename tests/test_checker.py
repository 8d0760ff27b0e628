"""Solution checkers: suffix DP, incremental DP, and the brute oracle."""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diam_ramsey import (
    Coloring,
    IncrementalState,
    IntSet,
    OracleCapError,
    ProblemSpec,
    Witness,
    brute_force_exists,
    exists_solution,
    lower_bound_coloring,
    parse_run_string,
    validate_witness,
)
from diam_ramsey.checker import (
    DEFAULT_ORACLE_CAP,
    _least_set,
    _suffix_table,
)

# The reference table's "no chain" cell: the checker's rows end before
# their first such cell instead.
_NEG = -(1 << 40)
# The reference table's "no constraint" row S[t+1]: the checker builds no
# such row and passes no room to its last stage instead.
_POS = 1 << 40


def _chains(c: Coloring, spec: ProblemSpec, first: int = 0):
    """Every chain of stages first..t as a tuple of (min, max, color) triples.

    Independent enumeration used to pin down canonicality; exponential,
    keep N tiny. With first = 0 these are the solution chains.
    """
    n = c.length
    off = 1 if spec.strict else 0

    def extend(stage: int, prev_max: int, prev_diam: int, acc):
        if stage == spec.t:
            yield acc
            return
        m = spec.sizes[stage]
        for i in range(prev_max + 1, n + 1):
            for j in range(i + m - 1, n + 1):
                if stage > 0 and j - i < prev_diam + off:
                    continue
                for k in range(spec.num_colors):
                    if c.color_at(i) != k or c.color_at(j) != k:
                        continue
                    if sum(1 for x in c.digits[i - 1 : j] if x == k) < m:
                        continue
                    yield from extend(stage + 1, j, j - i, acc + ((i, j, k),))

    yield from extend(first, 0, -1, ())


def _random_case(rng: random.Random, n_max: int):
    """A seeded spec (t = 1..4, r = 2..5, unequal sizes 2..5, strict or
    not) and a coloring of length <= n_max with a skewed color mix."""
    t = rng.randint(1, 4)
    r = rng.randint(2, 5)
    spec = ProblemSpec(
        tuple(rng.randint(2, 5) for _ in range(t)), r, rng.random() < 0.5
    )
    weights = [rng.random() ** 3 + 0.01 for _ in range(r)]
    n = rng.randint(1, n_max)
    return spec, Coloring(rng.choices(range(r), weights=weights, k=n), r)


# ======================================================================
# ProblemSpec and Witness
# ======================================================================

def test_spec_validation_and_label() -> None:
    spec = ProblemSpec((2, 3), 2)
    assert spec.t == 2
    assert spec.label() == "f(2,3;2)"
    assert ProblemSpec((2, 2), 3, strict=True).label() == "f*(2,2;3)"
    with pytest.raises(ValueError):
        ProblemSpec((), 2)
    with pytest.raises(ValueError):
        ProblemSpec((1, 2), 2)
    with pytest.raises(ValueError):
        ProblemSpec((2, 2), 1)


@pytest.mark.parametrize("strict", ["no", "", 0, 1, None, 1.0])
def test_spec_strict_must_be_a_bool(strict) -> None:
    """A truthy non-bool would run f* and reach to_json() as it is."""
    with pytest.raises(ValueError) as exc:
        ProblemSpec((2, 2), 2, strict)
    assert str(exc.value) == f"strict must be a bool, got {strict!r}"


def test_witness_shape() -> None:
    w = Witness((IntSet([1, 2]), IntSet([3, 5])), (0, 1))
    assert w.diams == (1, 2)
    assert w.to_json() == {
        "sets": [[1, 2], [3, 5]],
        "colors": [0, 1],
        "diams": [1, 2],
    }
    with pytest.raises(ValueError):
        Witness((IntSet([1, 2]),), (0, 1))


def test_validate_witness_accepts_and_rejects() -> None:
    c = parse_run_string("0^6", 2)
    spec = ProblemSpec((2, 2), 2)
    validate_witness(Witness((IntSet([1, 2]), IntSet([3, 4])), (0, 0)), c, spec)

    bad = [
        (Witness((IntSet([1, 2]),), (0,)), "expected 2 sets, got 1"),
        (
            Witness((IntSet([1, 2, 3]), IntSet([4, 5])), (0, 0)),
            "set 1 has 3 elements, expected 2",
        ),
        (
            Witness((IntSet([1, 2]), IntSet([3, 9])), (0, 0)),
            "set 2 leaves the interval [1,6]",
        ),
        (
            Witness((IntSet([1, 2]), IntSet([3, 4])), (1, 0)),
            "set 1 is not monochromatic of color 1 (position 1 has color 0)",
        ),
        (
            Witness((IntSet([1, 3]), IntSet([2, 4])), (0, 0)),
            "set 1 does not precede set 2",
        ),
        (
            Witness((IntSet([1, 4]), IntSet([5, 6])), (0, 0)),
            "diameters must not decrease: 3 !<= 1",
        ),
    ]
    for w, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_witness(w, c, spec)


def test_validate_witness_strict_mode() -> None:
    c = parse_run_string("0^8", 2)
    spec = ProblemSpec((2, 2), 2, strict=True)
    validate_witness(Witness((IntSet([1, 2]), IntSet([3, 5])), (0, 0)), c, spec)
    message = "diameters must strictly increase: 1 !< 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_witness(
            Witness((IntSet([1, 2]), IntSet([3, 4])), (0, 0)), c, spec
        )


# ======================================================================
# exists_solution
# ======================================================================

def test_exists_trivial_cases() -> None:
    spec = ProblemSpec((2, 2, 2), 2)
    w = exists_solution(parse_run_string("0^12", 2), spec)
    assert w is not None
    assert [s.elements for s in w.sets] == [(1, 2), (3, 4), (5, 6)]
    assert w.colors == (0, 0, 0)

    # the classic avoiding coloring of length 11
    assert exists_solution(parse_run_string("10101101110", 2), spec) is None


def test_exists_requires_matching_palette() -> None:
    """The referee refuses a coloring of the wrong color count as the two
    solvers do, even when the witness would pass on its digits."""
    c, spec = Coloring([0, 0], 2), ProblemSpec((2,), 3)
    w = Witness((IntSet([1, 2]),), (0,))
    message = "^coloring has 2 colors, spec wants 3$"
    with pytest.raises(ValueError, match=message):
        validate_witness(w, c, spec)
    for check in (exists_solution, brute_force_exists):
        with pytest.raises(ValueError, match=message):
            check(c, spec)
    validate_witness(w, c, ProblemSpec((2,), 2))


def test_exists_vs_brute_exhaustive_small() -> None:
    specs = [
        ProblemSpec((2, 2), 2),
        ProblemSpec((2, 3), 2),
        ProblemSpec((2, 2), 2, strict=True),
        ProblemSpec((2, 2, 2), 2),
    ]
    for spec in specs:
        for n in range(1, 11):
            for bits in range(1 << n):
                c = Coloring([(bits >> x) & 1 for x in range(n)], 2)
                got = exists_solution(c, spec)
                ref = brute_force_exists(c, spec)
                assert (got is None) == (ref is None), (spec.label(), c)
                if got is not None:
                    validate_witness(got, c, spec)


def test_exists_three_colors_vs_brute() -> None:
    spec = ProblemSpec((2, 2), 3)
    for n in range(1, 8):
        for word in range(3 ** n):
            digits, x = [], word
            for _ in range(n):
                digits.append(x % 3)
                x //= 3
            c = Coloring(digits, 3)
            got = exists_solution(c, spec)
            assert (got is None) == (brute_force_exists(c, spec) is None)


def test_witness_is_canonical() -> None:
    """The returned chain minimizes (max B1, diam B1, max B2, ...) lexicographically."""
    rng = random.Random(424242)
    spec2 = ProblemSpec((2, 2), 2)
    spec3 = ProblemSpec((2, 2, 2), 2)
    strict = ProblemSpec((2, 2), 2, strict=True)
    unequal = ProblemSpec((2, 3, 2), 2)
    three = ProblemSpec((2, 2), 3)
    checked = 0
    for _ in range(400):
        spec = rng.choice([spec2, spec3, strict, unequal, three])
        n = rng.randrange(4, 13)
        r = spec.num_colors
        c = Coloring([rng.randrange(r) for _ in range(n)], r)
        w = exists_solution(c, spec)
        if w is None:
            continue
        key = tuple(x for s in w.sets for x in (s.max, s.max - s.min))
        best = min(
            tuple(x for (i, j, _k) in ch for x in (j, j - i))
            for ch in _chains(c, spec)
        )
        assert key == best, (c, spec.label())
        checked += 1
    assert checked > 100


def _assert_row(row: list[int], ref: list[int], where) -> None:
    """A table row is the reference row cut at its first _NEG cell: the
    two agree on 1..len(row) - 1, every cell of row from 1 on is at least
    1, and ref is _NEG from len(row) on. A row one cell short or one cell
    long fails."""
    end = len(row)
    assert end >= 1 and row[1:] == ref[1:end], where
    assert all(x >= 1 for x in row[1:]), where
    assert all(x == _NEG for x in ref[end:]), where


def test_suffix_table_matches_definition() -> None:
    """S[s][p] is the largest diam(B_s) over chains of stages s..t in [p, N]
    for s >= 2, and row s ends where that first fails. The table builds no
    row 1; exists_solution answers what S[1][1] would, so it is checked
    against the reference row 1 instead. S[t+1] is None: the last stage
    has no room to leave."""
    rng = random.Random(5150)
    finite = 0
    for _ in range(2000):
        spec, c = _random_case(rng, 12)
        n = c.length
        S = _suffix_table(c, spec)
        assert S[1] == [] and S[spec.t + 1] is None
        for s in range(1, spec.t + 1):
            ref = [_NEG] * (n + 2)
            for ch in _chains(c, spec, first=s - 1):
                i, j, _k = ch[0]
                for p in range(1, i + 1):
                    ref[p] = max(ref[p], j - i)
            if s == 1:
                avoids = exists_solution(c, spec) is None
                assert avoids == (ref[1] == _NEG), (c, spec.label())
            else:
                _assert_row(S[s], ref, (c, spec.label(), s))
            finite += sum(1 for x in ref if x != _NEG)
    assert finite > 5000


def _suffix_rows(c: Coloring, spec: ProblemSpec) -> list[list[int]]:
    """The suffix table from its definition in O(pairs) per stage: the best
    j - i at each start i over the monochromatic m_s-sets (i, j) that
    S[s+1][j+1] can follow, then a running max from the right. Positions
    are read from the digits, not from the coloring's index."""
    n = c.length
    off = 1 if spec.strict else 0
    rows = [[_NEG] * (n + 3) for _ in range(spec.t + 2)]
    rows[spec.t + 1] = [_POS] * (n + 3)
    for s in range(spec.t, 0, -1):
        row, nxt = rows[s], rows[s + 1]
        m = spec.sizes[s - 1]
        for k in range(spec.num_colors):
            L = [p for p, x in enumerate(c.digits, 1) if x == k]
            for a, i in enumerate(L):
                for j in L[a + m - 1 :]:
                    if nxt[j + 1] >= j - i + off:
                        row[i] = max(row[i], j - i)
        for p in range(n - 1, 0, -1):
            row[p] = max(row[p], row[p + 1])
    return rows


def _relabelings_apart(r: int, n: int):
    """One coloring of length n per class under color relabeling: colors
    first appear in the order 0, 1, 2, ..."""
    for digits in product(range(r), repeat=n):
        seen = -1
        for x in digits:
            if x > seen + 1:
                break
            seen = max(seen, x)
        else:
            yield digits


@pytest.mark.parametrize("r", [2, 3])
def test_suffix_table_rows_match_definition(r: int) -> None:
    """Rows 2..t on every coloring with N <= 10 up to relabeling (the
    table does not depend on the color names), strict and not, each the
    reference row cut at its first _NEG cell; the witness
    walk reads each S[s+1], S[t+1] is None, t = 1 builds no sweep, and
    exists_solution finds no chain exactly when the reference S[1][1] is
    _NEG."""
    specs = [
        ProblemSpec(sizes, r, strict)
        for sizes in ((2,), (2, 2), (2, 3, 2), (3, 2))
        for strict in (False, True)
    ]
    finite = 0
    for n in range(1, 11):
        for digits in _relabelings_apart(r, n):
            c = Coloring(digits, r)
            for spec in specs:
                ref = _suffix_rows(c, spec)
                S = _suffix_table(c, spec)
                for s in range(2, spec.t + 1):
                    _assert_row(S[s], ref[s], (digits, spec, s))
                assert S[-1] is None and len(S) == len(ref)
                avoids = exists_solution(c, spec) is None
                assert avoids == (ref[1][1] == _NEG), (digits, spec)
                finite += ref[1][1] != _NEG
    assert finite > 1000


def _long_cases():
    """Long colorings with few runs, whose reference rows end in long _NEG
    tails that the checker's rows leave out:
    the constructions for m = 2..16 (both families), both one-position
    extensions, seeded flips of 1-3 positions, each strict and not, and
    3-colorings built from runs."""
    rng = random.Random(1407)
    for m in range(2, 17):
        for general in (False, True):
            base = lower_bound_coloring(m, force_general=general)
            flips = []
            for _ in range(3):
                digits = list(base.digits)
                for p in rng.sample(range(base.length), rng.randint(1, 3)):
                    digits[p] = 1 - digits[p]
                flips.append(Coloring(digits, 2))
            for c in (base, base.extended(0), base.extended(1), *flips):
                for strict in (False, True):
                    yield c, ProblemSpec((m, m, m), 2, strict)
    for sizes in ((3, 4, 2), (5, 2, 3, 2), (2, 6)):
        for _ in range(4):
            runs = [(rng.randrange(3), rng.randint(1, 9)) for _ in range(14)]
            c = Coloring._from_runs(runs, 3)
            for strict in (False, True):
                yield c, ProblemSpec(sizes, 3, strict)


def test_suffix_table_rows_match_definition_on_long_colorings() -> None:
    """Rows 2..t on colorings up to N = 133, where much of each reference
    row lies past its stage's live limit: each sweep starts at the limit
    the later stage leaves and each row ends at its own, so a limit, a
    pointer start or a row end one off shows here.
    Stage 1 is checked through exists_solution against the reference
    S[1][1], S[t+1] is None, and dead cells are counted on the reference
    rows 1..t."""
    cases = dead = cells = 0
    for c, spec in _long_cases():
        ref = _suffix_rows(c, spec)
        S = _suffix_table(c, spec)
        for s in range(2, spec.t + 1):
            _assert_row(S[s], ref[s], (c, spec, s))
        assert S[-1] is None and len(S) == len(ref)
        assert (exists_solution(c, spec) is None) == (ref[1][1] == _NEG)
        for s in range(1, spec.t + 1):
            dead += ref[s][1 : c.length + 1].count(_NEG)
        cells += spec.t * c.length
        cases += 1
    assert cases == 384
    assert dead > cells // 4


def test_three_routes_agree_on_random_specs() -> None:
    """Suffix DP, brute oracle and an incremental replay on unequal sizes,
    t = 1..4, r = 2..5, strict and not; every witness validates, and its
    sets are sorted and distinct as IntSet(...) would make them."""
    rng = random.Random(8086)
    found = 0
    for _ in range(3000):
        spec, c = _random_case(rng, 14)
        got = exists_solution(c, spec)
        ref = brute_force_exists(c, spec)
        state = IncrementalState(spec)
        replay = any(state.extend(x) for x in c.digits)
        assert (got is None) == (ref is None) == (not replay), (c, spec.label())
        for w in (got, ref):
            if w is not None:
                validate_witness(w, c, spec)
                assert all(s == IntSet(s.elements) for s in w.sets)
        found += got is not None
    assert 300 < found < 2700


def test_canonical_witness_frozen_examples() -> None:
    spec = ProblemSpec((2, 2, 2), 2)
    w = exists_solution(parse_run_string("0^510^51", 2), spec)
    assert [s.elements for s in w.sets] == [(1, 2), (3, 4), (5, 7)]
    w = exists_solution(parse_run_string("110011001100", 2), spec)
    assert [s.elements for s in w.sets] == [(1, 2), (3, 4), (5, 6)]
    assert w.colors == (1, 0, 1)


@pytest.mark.parametrize(
    "m, x, triples",
    [
        (200, 0, [(997, 1196, 1), (1197, 1396, 1), (1528, 1727, 0)]),
        (200, 1, [(1, 399, 0), (467, 997, 1), (1197, 1727, 1)]),
        (500, 0, [(2497, 2996, 1), (2997, 3496, 1), (3828, 4327, 0)]),
        (500, 1, [(1, 999, 0), (1167, 2497, 1), (2997, 4327, 1)]),
    ],
)
def test_construction_extension_witnesses_are_pinned(m, x, triples) -> None:
    """The canonical witness of each one-position extension of the m = 200
    and 500 constructions, as (min, max, color) per set; its members are
    the least ones, so the triples fix every set."""
    c = lower_bound_coloring(m).extended(x)
    spec = ProblemSpec((m, m, m), 2)
    w = exists_solution(c, spec)
    assert [(s.min, s.max, k) for s, k in zip(w.sets, w.colors)] == triples
    for s, (i, _j, k) in zip(w.sets, triples):
        L = c.positions_of(k)
        a = L.index(i)
        assert s.elements == L[a : a + m - 1] + (s.max,)
    validate_witness(w, c, spec)


def _digest_cases():
    """3 000 seeded random cases with N <= 60, then both construction
    families for m = 2..120 with their two one-position extensions, strict
    and not."""
    rng = random.Random(14075122)
    for _ in range(3000):
        spec, c = _random_case(rng, 60)
        yield c, spec
    for m in range(2, 121):
        for general in (False, True):
            base = lower_bound_coloring(m, force_general=general)
            for c in (base, base.extended(0), base.extended(1)):
                for strict in (False, True):
                    yield c, ProblemSpec((m, m, m), 2, strict)


def test_canonical_witnesses_digest() -> None:
    """One sha256 over the JSON of every canonical witness (or null) on
    4 428 inputs, 2 938 of which hold a solution: a change to the checker
    that moves any witness, or any verdict, changes the digest."""
    h = hashlib.sha256()
    found = 0
    for c, spec in _digest_cases():
        w = exists_solution(c, spec)
        h.update(json.dumps(None if w is None else w.to_json()).encode())
        h.update(b"\n")
        found += w is not None
    assert found == 2938
    assert h.hexdigest() == (
        "6624fc7c0a069cf830d180113e195fcfa3fc0be174c17d68101af9b4868d60e4"
    )


# ======================================================================
# least (max, diam) set
# ======================================================================

def _least(c: Coloring, start: int, d: int, m: int):
    found = _least_set(c, m, start, d)
    return None if found is None else (found[0], found[0] - found[1])


def test_least_set_examples() -> None:
    # 001000: a 2-set of diameter >= 0 starting at or after 1 first closes
    # at position 2 ({1, 2}); requiring diameter >= 3 pushes the end to 4,
    # via {1, 4}, since the lone 1 at position 3 pairs with nothing.
    c = parse_run_string("0^210^3", 2)
    assert _least(c, 1, 0, 2) == (2, 1)
    assert _least(c, 1, 3, 2) == (4, 3)
    assert _least(c, 3, 1, 2) == (5, 1)
    assert _least(c, 1, 99, 2) is None
    assert _least_set(c, 2, 1, 3) == (4, 1, 0)  # (max, min, color)


def test_least_set_against_bruteforce() -> None:
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 16)
        c = Coloring([rng.randrange(2) for _ in range(n)], 2)
        start = rng.randrange(1, n + 1)
        d = rng.randrange(0, 6)
        m = rng.randrange(2, 5)
        ref = None
        for k in range(2):
            pos = [p for p in c.positions_of(k) if p >= start]
            for bi in range(len(pos)):
                for bj in range(bi + m - 1, len(pos)):
                    i, j = pos[bi], pos[bj]
                    if j - i >= d:
                        cand = (j, j - i)
                        if ref is None or cand < ref:
                            ref = cand
        assert _least(c, start, d, m) == ref


def test_least_set_with_room_against_bruteforce() -> None:
    """The witness walk's call: an end e also needs room[e+1] >= diam + off,
    with room the reference row S[s+1], at every stage, start and diameter
    floor. The walk gets that row cut at its first _NEG cell, as the table
    builds it, and the scan stops where the row ends, so cases whose least
    set ends at the last end before the cut catch a stop one too early. At
    the last stage the walk passes no room instead of the reference's _POS
    row, and gets the same answer."""
    rng = random.Random(2718)
    found = at_stop = last_stage = 0
    for _ in range(150):
        t = rng.randint(2, 3)
        r = rng.randint(2, 3)
        spec = ProblemSpec(
            tuple(rng.randint(2, 4) for _ in range(t)), r, rng.random() < 0.5
        )
        off = 1 if spec.strict else 0
        n = rng.randint(2, 16)
        c = Coloring([rng.randrange(r) for _ in range(n)], r)
        rows = _suffix_rows(c, spec)
        for s, m in enumerate(spec.sizes, 1):
            room = rows[s + 1]
            dead = [p for p in range(1, n + 3) if room[p] == _NEG]
            cut = room[: dead[0]] if s < t else None
            last = dead[0] - 2 if dead else None
            # Every set the room row allows, in (max, diam) order.
            sets = sorted(
                (j, j - i, i, k)
                for k in range(r)
                for a, i in enumerate(c.positions_of(k))
                for j in c.positions_of(k)[a + m - 1 :]
                if room[j + 1] >= j - i + off
            )
            for lo in range(1, n + 1):
                for req in range(n):
                    ref = next(
                        ((j, i, k) for j, d, i, k in sets
                         if i >= lo and d >= req),
                        None,
                    )
                    got = _least_set(c, m, lo, req, cut, off)
                    assert got == ref, (c, spec, s, lo, req)
                    last_stage += s == t and ref is not None
                    found += ref is not None
                    at_stop += ref is not None and ref[0] == last
    assert found > 5000
    assert at_stop > 150
    assert last_stage > 5000


# ======================================================================
# brute oracle guard rails
# ======================================================================

def test_brute_oracle_cap() -> None:
    spec = ProblemSpec((2, 2), 2)
    assert brute_force_exists(Coloring([0] * 20, 2), spec) is not None
    with pytest.raises(OracleCapError, match="N <= 20, got N = 21"):
        brute_force_exists(Coloring([0] * 21, 2), spec)


def test_brute_witness_validates() -> None:
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(4, 13)
        c = Coloring([rng.randrange(2) for _ in range(n)], 2)
        spec = ProblemSpec((2, 2), 2)
        w = brute_force_exists(c, spec)
        if w is not None:
            validate_witness(w, c, spec)


# ======================================================================
# incremental state
# ======================================================================

def test_incremental_matches_exists_on_prefixes() -> None:
    rng = random.Random(31337)
    for spec in (
        ProblemSpec((2, 2), 2),
        ProblemSpec((2, 2, 2), 2),
        ProblemSpec((3, 3), 2),
        ProblemSpec((2, 2), 2, strict=True),
        ProblemSpec((2, 2), 3),
    ):
        state = IncrementalState(spec)
        digits: list[int] = []
        for _ in range(60):
            k = rng.randrange(spec.num_colors)
            closes = state.extend(k)
            c = Coloring(digits + [k], spec.num_colors)
            assert closes == (exists_solution(c, spec) is not None)
            if not closes:
                digits.append(k)
            assert state._digits == digits
    # Constructions of length f(m,m,m;2) - 1 avoid and every one-position
    # extension closes; at m = 12 (length 97) the rows double twice.
    for m in (5, 12):
        spec = ProblemSpec((m, m, m), 2)
        state = IncrementalState(spec)
        digits = list(lower_bound_coloring(m).digits)
        assert not any(state.extend(x) for x in digits)
        for x in (0, 1):
            assert state.extend(x)
        assert state._digits == digits


def _continuation_flags(state: IncrementalState, r: int, depth: int) -> list:
    """Whether each continuation of up to `depth` positions closes, in DFS
    order, walked by extend/retract so the state ends as it began."""
    flags = []
    for x in range(r):
        closes = state.extend(x)
        flags.append(closes)
        if not closes:
            if depth > 1:
                flags.append(_continuation_flags(state, r, depth - 1))
            state.retract()
    return flags


def test_incremental_retract_restores() -> None:
    """extend then retract leaves a state that behaves as a fresh replay of
    the same prefix, also after stages became satisfiable and were undone."""
    rng = random.Random(2718)
    for spec in (
        ProblemSpec((2, 2), 2),
        ProblemSpec((2, 3, 2), 2),
        ProblemSpec((3, 2), 2, strict=True),
        ProblemSpec((2, 2, 2), 3),
    ):
        r = spec.num_colors
        for _ in range(30):
            state = IncrementalState(spec)
            prefix: list[int] = []
            while len(prefix) < 12:
                for x in rng.sample(range(r), r):
                    if not state.extend(x):
                        prefix.append(x)
                        break
                else:
                    break
            for x in rng.choices(range(r), k=3):
                if state.extend(x):
                    break
            while state.length > len(prefix):
                state.retract()
            fresh = IncrementalState(spec)
            for x in prefix:
                fresh.extend(x)
            assert state.length == fresh.length == len(prefix)
            assert state._k == fresh._k < spec.t
            assert _continuation_flags(state, r, 4) == _continuation_flags(
                fresh, r, 4
            ), (spec.label(), prefix)


def _dp_flags(digits: list[int], spec: ProblemSpec, depth: int) -> list:
    """_continuation_flags of the prefix `digits`, read from the suffix DP."""
    flags = []
    for x in range(spec.num_colors):
        digits.append(x)
        found = exists_solution(Coloring(digits, spec.num_colors), spec)
        flags.append(found is not None)
        if found is None and depth > 1:
            flags.append(_dp_flags(digits, spec, depth - 1))
        digits.pop()
    return flags


def test_incremental_closing_extend_leaves_no_trace() -> None:
    """A closing extend checks stage t first and returns before it writes
    anything. An extend at p with a color that does not close, after it,
    must write stages 1..t-1 at p over the cells an earlier branch left:
    the state then continues as a fresh replay and the suffix DP do. The
    walk goes on from that state. t = 1 has no stage t-1 (its closing
    stage is stage 1); for t = 2..4, some cases must have stage t-1
    improve at p, where a stale cell would show."""
    improved = dict.fromkeys(range(2, 5), 0)
    for t, r, strict in product(range(1, 5), (2, 3), (False, True)):
        spec = ProblemSpec((2,) * t, r, strict)
        rng = random.Random(1000 * t + 10 * r + strict)
        state = IncrementalState(spec)
        prefix: list[int] = []
        cases = nodes = 0

        def walk() -> None:
            nonlocal cases, nodes
            closing = []
            for x in range(r):
                if state.extend(x):
                    closing.append(x)
                else:
                    state.retract()
            for y in rng.sample(range(r), r):
                if y in closing or cases == 12 or nodes == 2000:
                    continue
                nodes += 1
                if closing:
                    assert state.extend(closing[0])
                assert not state.extend(y)
                prefix.append(y)
                p = len(prefix)
                if closing:
                    cases += 1
                    if t > 1:
                        row = state._m[t - 1]
                        improved[t] += row[p] < row[p - 1]
                    fresh = IncrementalState(spec)
                    assert not any(fresh.extend(x) for x in prefix)
                    flags = _continuation_flags(state, r, 3)
                    assert flags == _continuation_flags(fresh, r, 3), prefix
                    assert flags == _dp_flags(prefix, spec, 3), prefix
                if p < 20:
                    walk()
                state.retract()
                prefix.pop()

        walk()
        assert cases, spec.label()
    assert all(improved.values()), improved


def _snapshot(state: IncrementalState) -> tuple:
    """Deep copies of every field that extend and retract write."""
    return (
        state._digits[:],
        [L[:] for L in state._pos],
        [row[:] for row in state._m],
        state._first_finite[:],
        state._k,
    )


def test_incremental_closing_extend_leaves_state_unchanged() -> None:
    """A closing extend returns True and writes nothing: the digits, the
    positions, every row, first and k equal a snapshot taken before it.
    A retract after an avoiding extend leaves the digits, positions, k,
    first[:k + 1] and the row cells a later extend reads (stage s <= k + 1
    from first[s - 1] to p) as a fresh replay has them. Every extend
    answers as the suffix DP."""
    for t, r, strict in product(range(1, 5), (2, 3), (False, True)):
        spec = ProblemSpec((2,) * t, r, strict)
        rng = random.Random(100 * t + 10 * r + strict)
        state = IncrementalState(spec)
        prefix: list[int] = []
        closings = nodes = 0

        def read(s: IncrementalState) -> tuple:
            k, first, p = s._k, s._first_finite, s.length
            rows = [s._m[j][first[j - 1] : p + 1] for j in range(1, k + 2)]
            return s._digits, s._pos, k, first[: k + 1], rows

        def walk() -> None:
            nonlocal closings, nodes
            fresh = IncrementalState(spec)
            assert not any(fresh.extend(x) for x in prefix)
            avoiding = []
            for x in rng.sample(range(r), r):
                before = _snapshot(state)
                closes = state.extend(x)
                dp = exists_solution(Coloring(prefix + [x], r), spec)
                assert closes == (dp is not None), (prefix, x)
                if closes:
                    closings += 1
                    assert _snapshot(state) == before, (prefix, x)
                else:
                    avoiding.append(x)
                    state.retract()
                assert read(state) == read(fresh), (prefix, x)
            for y in avoiding:
                if nodes == 300 or len(prefix) == 24:
                    return
                nodes += 1
                assert not state.extend(y)
                prefix.append(y)
                walk()
                state.retract()
                prefix.pop()

        walk()
        assert closings, spec.label()
        # Stage t is never satisfiable inside the prefix, so no first[t].
        assert len(state._first_finite) == t


def test_incremental_closing_extends_in_a_row() -> None:
    """Runs of closing extends, each closing color up to three times over,
    change nothing: the avoiding extend after a run, and every extend of
    the walk that goes on from it, answer as the suffix DP. When every
    color closes, the run covers them all and the walk backs up."""
    runs = 0
    for t, r, strict in product(range(1, 4), (2, 3), (False, True)):
        rng = random.Random(10 * t + r + 5 * strict)
        spec = ProblemSpec(
            tuple(rng.choice((2, 3)) for _ in range(t)), r, strict
        )
        state = IncrementalState(spec)
        prefix: list[int] = []
        for _ in range(150):
            closing = [
                x for x in range(r)
                if exists_solution(Coloring(prefix + [x], r), spec)
            ]
            run = [x for x in closing for _ in range(rng.randrange(1, 4))]
            rng.shuffle(run)
            before = _snapshot(state)
            assert all(state.extend(x) for x in run), (prefix, run)
            assert _snapshot(state) == before
            runs += len(run) > 1
            open_ = [x for x in range(r) if x not in closing]
            if not open_:
                for _ in range(min(len(prefix), rng.randrange(1, 4))):
                    state.retract()
                    prefix.pop()
                continue
            y = rng.choice(open_)
            assert not state.extend(y)
            prefix.append(y)
            assert state._digits == prefix
            assert _continuation_flags(state, r, 2) == _dp_flags(
                prefix, spec, 2
            ), (spec.label(), prefix)
    assert runs > 100, runs


def test_incremental_flag_then_extend_errors() -> None:
    """Out-of-range colors refuse to extend and change nothing. A closing
    extend changes nothing either, so any extend may follow it, and an
    empty state refuses to retract."""
    spec = ProblemSpec((2, 2), 2)
    state = IncrementalState(spec)
    for k in (0, 0, 0):
        state.extend(k)
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            state.extend(bad)
        assert state.length == 3
    assert state.extend(0) and state.extend(0)
    assert state._digits == [0, 0, 0]
    assert not state.extend(1) and state._digits == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        IncrementalState(spec).retract()


def test_incremental_rejects_non_integer_color() -> None:
    """A color that is no index, whether it passes the range check (1.0)
    or cannot be compared with an int ("1", None, []), is refused with a
    ValueError before anything is appended, so retract still undoes the
    last extend."""
    for color in (1.0, "1", None, []):
        state = IncrementalState(ProblemSpec((2, 2), 2))
        state.extend(0)
        message = f"color {color!r} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state.extend(color)
        assert state.length == 1
        state.retract()
        assert state.length == 0
        assert not state.extend(1) and state.length == 1


def test_incremental_extend_takes_bools_as_colors() -> None:
    """The README's one deliberate exception to refusing bools as colors:
    extend appends True and False as they are, and closes as it would for
    1 and 0."""
    spec = ProblemSpec((2, 2), 2)
    by_bool, by_int = IncrementalState(spec), IncrementalState(spec)
    flags = [by_bool.extend(color) for color in (True, True, False, False)]
    assert flags == [by_int.extend(x) for x in (1, 1, 0, 0)]
    assert flags == [False, False, False, True]
    assert by_bool._digits == [True, True, False]
    assert by_bool._digits == by_int._digits


def test_incremental_dfs_matches_exists() -> None:
    """Walk the whole avoiding tree by extend/retract, as the search does,
    and check each extend with the suffix DP. On these specs later branches
    reach a position with fewer stages satisfied than earlier ones did, so
    a stale row cell would show."""
    for spec in (
        ProblemSpec((2, 2), 3),
        ProblemSpec((2, 2, 2), 2),
        ProblemSpec((2, 2, 2, 2), 2),
    ):
        r = spec.num_colors
        state = IncrementalState(spec)
        digits: list[int] = []

        def walk() -> None:
            for x in range(r):
                digits.append(x)
                closes = state.extend(x)
                c = Coloring(digits, r)
                assert closes == (exists_solution(c, spec) is not None), c
                if not closes:
                    walk()
                    state.retract()
                digits.pop()

        walk()


@st.composite
def _state_walks(draw):
    """A spec (sizes 2..4, t = 1..4, r = 2..4, strict or not) and a list
    of operations: a color to extend, or None to retract."""
    t = draw(st.integers(1, 4))
    sizes = tuple(draw(st.lists(st.integers(2, 4), min_size=t, max_size=t)))
    r = draw(st.integers(2, 4))
    spec = ProblemSpec(sizes, r, draw(st.booleans()))
    op = st.one_of(st.none(), st.integers(0, r - 1))
    return spec, draw(st.lists(op, min_size=10, max_size=60))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_state_walks())
def test_incremental_differential_walks(walk) -> None:
    """Every extend answers as the suffix DP and the brute oracle on the
    prefix plus its color, and appends the color exactly when it avoids.
    Retracts leave stale cells in the rows that no later extend may read."""
    spec, ops = walk
    state = IncrementalState(spec)
    digits: list[int] = []
    for x in ops:
        if x is None or len(digits) == DEFAULT_ORACLE_CAP:
            if digits:
                state.retract()
                digits.pop()
        else:
            c = Coloring(digits + [x], spec.num_colors)
            found = exists_solution(c, spec) is not None
            brute = brute_force_exists(c, spec) is not None
            assert state.extend(x) == found == brute
            if not found:
                digits.append(x)
        assert state._digits == digits
