"""Search engine: exact values, certificates, symmetry, budgets."""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os

import pytest

import diam_ramsey.search as search_mod
from diam_ramsey import (
    Coloring,
    FormulaContradictedError,
    ProblemSpec,
    SearchBudgetError,
    SearchConfig,
    brute_force_exists,
    check_lemma22,
    classify_lemma21,
    compute_f,
    enumerate_avoiding,
    exists_solution,
    find_extremal_b1,
    formula_f_mmm2,
    known_value,
    lower_bound_runs,
    parse_run_string,
    sweep_lemmas,
)


def _no_pool(*args, **kwargs):
    raise AssertionError("no worker process expected")


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        SearchConfig(n_cap=0)
    with pytest.raises(ValueError):
        SearchConfig(mode="everything")
    modes = "('value_only', 'one_certificate', 'all_certificates')"
    with pytest.raises(ValueError) as exc:
        SearchConfig(mode=[])
    assert str(exc.value) == f"mode must be one of {modes}, got []"
    with pytest.raises(ValueError):
        SearchConfig(worker_count=0)
    with pytest.raises(ValueError):
        SearchConfig(max_nodes=0)


_SPEC = ProblemSpec((2, 2), 2)
# (build, name in the message, the value it rejects)
_NON_INTEGERS = [
    (lambda: ProblemSpec((2.5, 2.5), 2), "set size", 2.5),
    (lambda: ProblemSpec((2, 2.0), 2), "set size", 2.0),
    (lambda: ProblemSpec((2, 2), 2.0), "num_colors", 2.0),
    (lambda: ProblemSpec((2, 2), "2"), "num_colors", "2"),
    (lambda: SearchConfig(n_cap=6.5), "n_cap", 6.5),
    (lambda: SearchConfig(worker_count=2.0), "worker_count", 2.0),
    (lambda: SearchConfig(worker_count=None), "worker_count", None),
    (lambda: SearchConfig(max_nodes=1e6), "max_nodes", 1e6),
    (lambda: enumerate_avoiding(_SPEC, 3.5), "length", 3.5),
    (lambda: enumerate_avoiding(_SPEC, 4.0), "length", 4.0),
]


@pytest.mark.parametrize(
    "build, name, value",
    _NON_INTEGERS,
    ids=[f"{name}-{value!r}" for _b, name, value in _NON_INTEGERS],
)
def test_non_integer_numbers_are_rejected(build, name, value) -> None:
    """Whole floats too: they pass the range checks and fail later."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


_C1 = Coloring((0,), 2)
_M = "m must be >= 2, got 1"
_COLORS = "need at least 2 colors, got 1"
# (call, build, the exact message) for a count one below its least value
_BELOW_LEAST = [
    ("find_extremal_b1", lambda: find_extremal_b1(_C1, 1), _M),
    ("classify_lemma21", lambda: classify_lemma21(_C1, 1), _M),
    ("check_lemma22", lambda: check_lemma22(_C1, 1), _M),
    ("sweep_lemmas-m", lambda: sweep_lemmas(1), _M),
    ("lower_bound_runs", lambda: lower_bound_runs(1), _M),
    ("formula_f_mmm2", lambda: formula_f_mmm2(1), _M),
    ("sweep_lemmas-workers", lambda: sweep_lemmas(2, 0),
     "workers must be >= 1, got 0"),
    ("enumerate_avoiding", lambda: enumerate_avoiding(_SPEC, 0),
     "length must be >= 1, got 0"),
    ("n_cap", lambda: SearchConfig(n_cap=0), "n_cap must be >= 1, got 0"),
    ("worker_count", lambda: SearchConfig(worker_count=0),
     "worker_count must be >= 1, got 0"),
    ("max_nodes", lambda: SearchConfig(max_nodes=0),
     "max_nodes must be >= 1, got 0"),
    ("Coloring", lambda: Coloring([0], 1), _COLORS),
    ("parse_run_string", lambda: parse_run_string("01", 1), _COLORS),
    ("ProblemSpec", lambda: ProblemSpec((2,), 1), _COLORS),
]


@pytest.mark.parametrize(
    "build, message",
    [case[1:] for case in _BELOW_LEAST],
    ids=[case[0] for case in _BELOW_LEAST],
)
def test_counts_below_their_least_are_rejected(build, message) -> None:
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_formula_f_mmm2_values() -> None:
    # 8m-5+floor((2m-2)/3), one higher at m=2 and m=5
    assert [formula_f_mmm2(m) for m in range(2, 7)] == [12, 20, 29, 38, 46]
    with pytest.raises(ValueError):
        formula_f_mmm2(1)


def test_known_value_families() -> None:
    assert known_value(ProblemSpec((3, 3), 2)) == 12
    assert known_value(ProblemSpec((3, 3), 3)) == 20
    assert known_value(ProblemSpec((3, 3), 4)) == 27
    assert known_value(ProblemSpec((3, 3, 3), 2)) == 20
    assert known_value(ProblemSpec((2, 3), 2)) is None
    assert known_value(ProblemSpec((2, 2), 5)) is None
    assert known_value(ProblemSpec((2, 2), 2, strict=True)) is None


def test_compute_small_values() -> None:
    r = compute_f(ProblemSpec((2, 2), 2))
    assert r.f_value == 7 and not r.inconclusive
    assert compute_f(ProblemSpec((2, 2, 2), 2)).f_value == 12
    assert compute_f(ProblemSpec((2, 2), 3)).f_value == 11


def test_compute_strict_needs_explicit_cap() -> None:
    spec = ProblemSpec((2, 2), 2, strict=True)
    # no closed form to derive a cap from; the library names its own field
    with pytest.raises(ValueError, match=r"supply SearchConfig\.n_cap$"):
        compute_f(spec)
    r = compute_f(spec, SearchConfig(n_cap=12))
    assert r.f_value == 9


def test_certificates_avoid_and_have_length_f_minus_1() -> None:
    spec = ProblemSpec((2, 2), 2)
    r = compute_f(spec, SearchConfig(mode="all_certificates"))
    assert r.certificates
    for c in r.certificates:
        assert c.length == r.f_value - 1
        assert exists_solution(c, spec) is None


def test_value_only_collects_nothing() -> None:
    r = compute_f(ProblemSpec((2, 2), 2), SearchConfig(mode="value_only"))
    assert r.certificates == ()


def test_one_certificate_is_lexicographic_minimum() -> None:
    spec = ProblemSpec((2, 2), 2)
    one = compute_f(spec, SearchConfig(mode="one_certificate"))
    all_ = compute_f(spec, SearchConfig(mode="all_certificates"))
    assert len(one.certificates) == 1
    assert one.certificates[0].digits == min(c.digits for c in all_.certificates)


def _is_representative(digits: tuple[int, ...]) -> bool:
    """Each new color is the least one not used before it."""
    used = 0
    for x in digits:
        if x > used:
            return False
        used = max(used, x + 1)
    return True


def test_all_certificates_match_enumeration() -> None:
    """All maximal avoiding representatives, cross-checked against the oracle."""
    for r in (2, 3):
        spec = ProblemSpec((2, 2), r)
        res = compute_f(spec, SearchConfig(mode="all_certificates"))
        ref = [
            digits
            for digits in itertools.product(range(r), repeat=res.f_value - 1)
            if _is_representative(digits)
            and brute_force_exists(Coloring(digits, r), spec) is None
        ]
        assert [c.digits for c in res.certificates] == ref, r


def _avoiding(spec: ProblemSpec, length: int) -> list[tuple[int, ...]]:
    """Every avoiding coloring of [1, length] in lexicographic order, by
    the suffix DP over itertools.product: independent of the search."""
    r = spec.num_colors
    return [
        digits
        for digits in itertools.product(range(r), repeat=length)
        if exists_solution(Coloring(digits, r), spec) is None
    ]


def test_nodes_expanded_counts_the_avoiding_tree() -> None:
    """nodes_expanded, derived without the search: every avoiding
    representative shorter than n_cap, the empty one included, tries
    min(r - 1, used) + 1 colors, where used counts the colors it holds.
    At r = 2 the walk reaches past the deal depth, so two parts split it."""
    caps = {2: search_mod._SPLIT_DEPTH + 1, 3: 9, 4: 7}
    specs = itertools.product(range(1, 4), range(2, 5), (False, True))
    for t, r, strict in specs:
        spec = ProblemSpec((2,) * t, r, strict)
        n_cap = caps[r]
        expected = sum(
            min(r - 1, len(set(d))) + 1
            for length in range(n_cap)
            for d in itertools.product(range(r), repeat=length)
            if _is_representative(d)
            and (not d or exists_solution(Coloring(d, r), spec) is None)
        )
        for workers in (1, 2):
            config = SearchConfig(
                n_cap=n_cap, mode="value_only", worker_count=workers
            )
            nodes = compute_f(spec, config).stats.nodes_expanded
            assert nodes == expected, (spec.label(), workers)


def test_symmetry_reduction_halves_two_color_certificates() -> None:
    spec = ProblemSpec((2, 2), 2)
    certs = compute_f(spec, SearchConfig(mode="all_certificates")).certificates
    full = _avoiding(spec, certs[0].length)
    # every representative opens with color 0 and uses both colors, so
    # each orbit has size 2 and holds the representative and its swap
    for c in certs:
        assert c.digits[0] == 0
        assert math.perm(2, len(set(c.digits))) == 2
    assert len(full) == 2 * len(certs)
    swapped = {tuple(1 - x for x in c.digits) for c in certs}
    assert set(full) == {c.digits for c in certs} | swapped


def test_inconclusive_at_cap() -> None:
    spec = ProblemSpec((3, 3), 2)  # true value 12
    r = compute_f(spec, SearchConfig(n_cap=8, mode="one_certificate"))
    assert r.inconclusive
    assert r.f_value is None
    assert r.n_cap == 8
    assert r.certificates and r.certificates[0].length == 8
    assert r.to_json()["inconclusive"] == {"f_greater_than": 8}


def test_stats_are_populated() -> None:
    r = compute_f(ProblemSpec((2, 2), 2))
    assert r.stats.nodes_expanded > 0
    assert r.stats.max_depth >= r.f_value - 1
    assert r.stats.wall_time >= 0
    assert r.stats.worker_count == 1


def test_budget_abort_carries_partial_stats() -> None:
    with pytest.raises(SearchBudgetError) as exc:
        compute_f(ProblemSpec((3, 3), 2), SearchConfig(max_nodes=50))
    assert exc.value.stats.nodes_expanded >= 50


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_is_one_total_at_every_worker_count(workers: int) -> None:
    """f(3,3,3;2) expands 26 551 nodes at every worker count."""
    spec = ProblemSpec((3, 3, 3), 2)

    def run(max_nodes: int):
        return compute_f(spec, SearchConfig(
            mode="value_only", worker_count=workers, max_nodes=max_nodes
        ))

    with pytest.raises(SearchBudgetError):
        run(26550)
    r = run(26551)
    assert r.f_value == 20
    assert r.stats.nodes_expanded == 26551


def test_formula_contradicted_is_loud(monkeypatch) -> None:
    """Patch the closed-form table to a wrong value and expect the alarm."""
    spec = ProblemSpec((2, 2), 2)  # true f = 7: avoiding colorings reach 6
    monkeypatch.setattr(search_mod, "known_value", lambda s: 5)
    with pytest.raises(FormulaContradictedError) as exc:
        compute_f(spec, SearchConfig(n_cap=8))
    assert exc.value.expected == 5
    assert exc.value.coloring.length >= 5
    assert exists_solution(exc.value.coloring, spec) is None
    # enumerate_avoiding runs the same search, so it fails the same way
    with pytest.raises(FormulaContradictedError):
        enumerate_avoiding(spec, 5)


def test_formula_contradicted_is_loud_in_parallel(monkeypatch) -> None:
    """Lengths above the closed form but below the split depth are checked.

    f(2,2;2) dies at length 6, well before the split depth; every part
    walks those levels, so the alarm comes out of a part at any count.
    """
    spec = ProblemSpec((2, 2), 2)
    monkeypatch.setattr(search_mod, "known_value", lambda s: 5)
    for workers in (1, 2):
        with pytest.raises(FormulaContradictedError) as exc:
            compute_f(spec, SearchConfig(n_cap=20, worker_count=workers))
        assert exc.value.expected == 5
        assert exc.value.coloring.length == 5


def test_parallel_agrees_with_sequential() -> None:
    spec = ProblemSpec((2, 2, 2), 2)
    seq = compute_f(spec, SearchConfig(mode="all_certificates", worker_count=1))
    par = compute_f(spec, SearchConfig(mode="all_certificates", worker_count=3))
    assert seq.f_value == par.f_value
    assert [c.digits for c in seq.certificates] == [
        c.digits for c in par.certificates
    ]
    assert par.stats.worker_count == 3


def test_pool_is_clamped_to_the_cpus(monkeypatch) -> None:
    real_pool = search_mod.Pool
    opened = []

    def recording_pool(procs):
        opened.append(procs)
        return real_pool(procs)

    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(search_mod, "Pool", recording_pool)
    r = compute_f(
        ProblemSpec((3, 3, 3), 2),
        SearchConfig(mode="value_only", worker_count=8),
    )
    assert opened == [2]
    assert r.f_value == 20
    assert r.stats.worker_count == 8


def test_usable_cpus(monkeypatch) -> None:
    """The affinity set where the OS has one, else cpu_count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        assert search_mod._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert search_mod._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert search_mod._usable_cpus() == 1


@pytest.mark.parametrize("cpus", [1, None])
def test_one_cpu_starts_no_process(monkeypatch, cpus) -> None:
    """One usable CPU; None reaches it through the cpu_count fallback."""
    spec = ProblemSpec((3, 3, 3), 2)
    seq = compute_f(spec, SearchConfig(mode="all_certificates"))
    seq_sweep = sweep_lemmas(3)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(search_mod, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(search_mod, "Pool", _no_pool)
    par = compute_f(spec, SearchConfig(mode="all_certificates", worker_count=8))
    assert par.f_value == seq.f_value
    assert par.certificates == seq.certificates
    assert par.stats.nodes_expanded == seq.stats.nodes_expanded
    assert sweep_lemmas(3, workers=8).to_json() == seq_sweep.to_json()


def test_spawn_start_method_agrees(monkeypatch) -> None:
    """Workers started by spawn (no inherited state) give the same results."""
    spec = ProblemSpec((3, 3, 3), 2)
    seq = compute_f(spec, SearchConfig(mode="all_certificates"))
    seq_sweep = sweep_lemmas(3)
    spawn = multiprocessing.get_context("spawn")
    opened = []

    def spawn_pool(procs):
        opened.append(procs)
        return spawn.Pool(procs)

    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(search_mod, "Pool", spawn_pool)
    par = compute_f(spec, SearchConfig(mode="all_certificates", worker_count=2))
    assert par.f_value == seq.f_value
    assert par.certificates == seq.certificates
    assert sweep_lemmas(3, workers=2).to_json() == seq_sweep.to_json()
    assert opened == [2, 2]


def _walk_parts(spec: ProblemSpec, n_cap: int, parts: int) -> list[tuple]:
    return [
        search_mod._search_from(
            (spec, n_cap, "all_certificates", None, None, k, parts)
        )
        for k in range(parts)
    ]


def _merge_parts(results: list[tuple]) -> tuple:
    best, certs, nodes = 0, [], 0
    for kbest, kcerts, knodes in results:
        nodes += knodes
        if kbest > best:
            best, certs = kbest, list(kcerts)
        elif kbest == best:
            certs.extend(kcerts)
    return best, sorted(certs), nodes


@pytest.mark.parametrize(
    "sizes, colors, n_cap",
    [((3, 3, 3), 2, 22), ((2, 2), 4, 17), ((2, 2), 2, 20)],
)
def test_parts_add_up_to_one_walk(sizes, colors, n_cap) -> None:
    """Every cut into parts merges to the whole walk, nodes included.

    f(2,2;4) deals only 125 prefixes at the split depth, and f(2,2;2)
    dies above it, so there every part but part 0 owns nothing.
    """
    spec = ProblemSpec(sizes, colors)
    whole = _merge_parts(_walk_parts(spec, n_cap, 1))
    for parts in (2, 3, 5, 8):
        results = _walk_parts(spec, n_cap, parts)
        assert _merge_parts(results) == whole
        if whole[0] < search_mod._SPLIT_DEPTH:
            assert results[1:] == [(0, [], 0)] * (parts - 1)


def test_parallel_inconclusive_and_one_certificate() -> None:
    spec = ProblemSpec((3, 3), 2)
    seq = compute_f(spec, SearchConfig(n_cap=9, worker_count=1))
    par = compute_f(spec, SearchConfig(n_cap=9, worker_count=2))
    assert seq.inconclusive and par.inconclusive
    assert seq.certificates[0].digits == par.certificates[0].digits


# ======================================================================
# enumerate_avoiding
# ======================================================================

def test_enumerate_avoiding_lex_order_and_count() -> None:
    spec = ProblemSpec((2, 2), 2)
    found = enumerate_avoiding(spec, 6)
    ref = [
        Coloring([(bits >> x) & 1 for x in range(6)], 2).digits
        for bits in range(1 << 6)
    ]
    ref = [
        d for d in ref
        if brute_force_exists(Coloring(d, 2), spec) is None
    ]
    assert [c.digits for c in found] == sorted(ref)


@pytest.mark.parametrize(
    "sizes, colors, strict, top",
    [((2, 2), 3, False, 10), ((2, 2), 4, False, 7), ((2, 2), 2, True, 8)],
)
def test_enumerate_avoiding_matches_product(sizes, colors, strict, top) -> None:
    """The whole avoiding set at each length, against _avoiding's filter."""
    spec = ProblemSpec(sizes, colors, strict=strict)
    for length in range(1, top + 1):
        ref = _avoiding(spec, length)
        assert [c.digits for c in enumerate_avoiding(spec, length)] == ref


def test_enumerate_avoiding_orbits() -> None:
    """compute_f's representatives at a length stand for the orbits of the
    avoiding set: orbit sizes r!/(r-u)! sum back to its count."""
    for r, length in ((2, 6), (3, 4), (3, 10)):
        spec = ProblemSpec((2, 2), r)
        plain = _avoiding(spec, length)
        config = SearchConfig(n_cap=length, mode="all_certificates")
        reps = compute_f(spec, config).certificates
        assert reps and all(rep.length == length for rep in reps)
        assert all(rep.digits[0] == 0 for rep in reps)
        assert [rep.digits for rep in reps] == [
            d for d in plain if _is_representative(d)
        ]
        orbits = [math.perm(r, len(set(rep.digits))) for rep in reps]
        assert sum(orbits) == len(plain), (r, length)


def test_enumerate_avoiding_validation() -> None:
    spec = ProblemSpec((2, 2), 2)
    with pytest.raises(ValueError):
        enumerate_avoiding(spec, 0)


def test_enumerate_avoiding_empty_when_forced() -> None:
    # every 2-coloring of [1, 7] contains a chain for (2,2;2)
    assert enumerate_avoiding(ProblemSpec((2, 2), 2), 7) == []


def test_enumerate_example_length_11() -> None:
    spec = ProblemSpec((2, 2, 2), 2)
    found = enumerate_avoiding(spec, 11)
    assert parse_run_string("10101101110", 2) in found  # the classic one
    assert len(found) == 2  # it and its color swap are the only two


def test_search_result_json_shape() -> None:
    r = compute_f(ProblemSpec((2, 2), 2))
    doc = r.to_json()
    assert doc["f_value"] == 7
    assert doc["spec"] == {"sizes": [2, 2], "num_colors": 2, "strict": False}
    assert isinstance(doc["certificates"], list)
    assert set(doc["stats"]) == {
        "nodes_expanded", "max_depth", "wall_time", "worker_count",
    }
    # certificates re-parse to the original colorings
    for s, c in zip(doc["certificates"], r.certificates):
        assert parse_run_string(s, 2) == c
