"""Solution checkers: suffix DP, incremental DP, and the brute oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diam_ramsey import (
    Coloring,
    FlaggedStateError,
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
    _NEG,
    _least_set,
    _suffix_table,
)


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
        Witness((IntSet([1, 2]),), (0,)),                      # wrong t
        Witness((IntSet([1, 2, 3]), IntSet([4, 5])), (0, 0)),  # wrong size
        Witness((IntSet([1, 2]), IntSet([3, 9])), (0, 0)),     # leaves [1,N]
        Witness((IntSet([1, 2]), IntSet([3, 4])), (1, 0)),     # wrong color
        Witness((IntSet([1, 3]), IntSet([2, 4])), (0, 0)),     # not preceding
        Witness((IntSet([1, 4]), IntSet([5, 6])), (0, 0)),     # diam decreases
    ]
    for w in bad:
        with pytest.raises(ValueError):
            validate_witness(w, c, spec)


def test_validate_witness_strict_mode() -> None:
    c = parse_run_string("0^8", 2)
    spec = ProblemSpec((2, 2), 2, strict=True)
    validate_witness(Witness((IntSet([1, 2]), IntSet([3, 5])), (0, 0)), c, spec)
    with pytest.raises(ValueError):  # equal diameters not enough
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
    for check in (exists_solution, brute_force_exists):
        with pytest.raises(ValueError, match="2 colors, spec wants 3"):
            check(Coloring([0, 1], 2), ProblemSpec((2, 2), 3))


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


def test_suffix_table_matches_definition() -> None:
    """S[s][p] is the largest diam(B_s) over chains of stages s..t in [p, N]."""
    rng = random.Random(5150)
    finite = 0
    for _ in range(2000):
        spec, c = _random_case(rng, 12)
        n = c.length
        S = _suffix_table(c, spec)
        for s in range(1, spec.t + 1):
            ref = [_NEG] * (n + 2)
            for ch in _chains(c, spec, first=s - 1):
                i, j, _k = ch[0]
                for p in range(1, i + 1):
                    ref[p] = max(ref[p], j - i)
            assert S[s][1 : n + 2] == ref[1:], (c, spec.label(), s)
            finite += sum(1 for x in ref if x != _NEG)
    assert finite > 5000


def test_three_routes_agree_on_random_specs() -> None:
    """Suffix DP, brute oracle and an incremental replay on unequal sizes,
    t = 1..4, r = 2..5, strict and not; every witness validates."""
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
        found += got is not None
    assert 300 < found < 2700


def test_canonical_witness_frozen_examples() -> None:
    spec = ProblemSpec((2, 2, 2), 2)
    w = exists_solution(parse_run_string("0^510^51", 2), spec)
    assert [s.elements for s in w.sets] == [(1, 2), (3, 4), (5, 7)]
    w = exists_solution(parse_run_string("110011001100", 2), spec)
    assert [s.elements for s in w.sets] == [(1, 2), (3, 4), (5, 6)]
    assert w.colors == (1, 0, 1)


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


# ======================================================================
# brute oracle guard rails
# ======================================================================

def test_brute_oracle_cap() -> None:
    c = Coloring([0] * 21, 2)
    with pytest.raises(OracleCapError):
        brute_force_exists(c, ProblemSpec((2, 2), 2))
    # explicit larger cap is allowed
    assert brute_force_exists(c, ProblemSpec((2, 2), 2), cap=21) is not None


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
            flagged = state.extend(k)
            digits.append(k)
            c = Coloring(digits, spec.num_colors)
            assert flagged == (exists_solution(c, spec) is not None)
            if flagged:
                state.retract()
                digits.pop()
    # Constructions of length f(m,m,m;2) - 1 avoid and every one-position
    # extension flags; at m = 12 (length 97) the rows double twice.
    for m in (5, 12):
        spec = ProblemSpec((m, m, m), 2)
        state = IncrementalState(spec)
        assert not any(state.extend(x) for x in lower_bound_coloring(m).digits)
        for x in (0, 1):
            assert state.extend(x)
            state.retract()


def _continuation_flags(state: IncrementalState, r: int, depth: int) -> list:
    """The flag of every continuation of up to `depth` positions, in DFS
    order, walked by extend/retract so the state ends as it began."""
    flags = []
    for x in range(r):
        flagged = state.extend(x)
        flags.append(flagged)
        if not flagged and depth > 1:
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
                    state.retract()
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
            assert not state.flagged and not fresh.flagged
            assert _continuation_flags(state, r, 4) == _continuation_flags(
                fresh, r, 4
            ), (spec.label(), prefix)


def test_incremental_flag_then_extend_errors() -> None:
    """Out-of-range colors and a flagged state refuse to extend and change
    nothing; an empty state refuses to retract."""
    spec = ProblemSpec((2, 2), 2)
    state = IncrementalState(spec)
    for k in (0, 0, 0):
        state.extend(k)
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            state.extend(bad)
        assert state.length == 3 and not state.flagged
    assert state.extend(0)
    assert state.flagged and state.length == 4
    with pytest.raises(FlaggedStateError):
        state.extend(1)
    assert state.length == 4
    state.retract()
    assert not state.flagged and not state.extend(1)
    with pytest.raises(ValueError):
        IncrementalState(spec).retract()


def test_incremental_dfs_matches_exists() -> None:
    """Walk the whole avoiding tree by extend/retract, as the search does,
    and check each flag with the suffix DP. On these specs later branches
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
                flagged = state.extend(x)
                c = Coloring(digits, r)
                assert flagged == (exists_solution(c, spec) is not None), c
                if not flagged:
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
    """After every extend or retract the flag agrees with the suffix DP and
    the brute oracle on the current prefix; a flagged state is retracted.
    Retracts leave stale cells in the rows that no later extend may read."""
    spec, ops = walk
    state = IncrementalState(spec)
    digits: list[int] = []

    def check() -> None:
        assert state.length == len(digits)
        if not digits:
            assert not state.flagged
            return
        c = Coloring(digits, spec.num_colors)
        found = exists_solution(c, spec) is not None
        brute = brute_force_exists(c, spec) is not None
        assert state.flagged == found == brute

    for x in ops:
        if x is None or len(digits) == DEFAULT_ORACLE_CAP:
            if digits:
                state.retract()
                digits.pop()
        else:
            state.extend(x)
            digits.append(x)
        check()
        if state.flagged:
            state.retract()
            digits.pop()
            check()
