"""Acceptance gate: one test per shipping criterion.

Each test prints a single summary line so a verbose run reads as a
checklist. Criteria with stated time limits assert them; the two
long-running entries (the m=5 three-set search and the m=6 lemma sweep)
carry the slow marker.
"""

from __future__ import annotations

import random
import time

import pytest

import diam_ramsey.search as search_mod
from diam_ramsey import (
    Coloring,
    ProblemSpec,
    SearchConfig,
    brute_force_exists,
    compute_f,
    enumerate_avoiding,
    exists_solution,
    format_run_string,
    formula_f_mmm2,
    lower_bound_coloring,
    sweep_lemmas,
    validate_witness,
    verify_avoiding,
)


def test_criterion_1_two_sets_closed_form() -> None:
    """f(m,m;2) = 5m-3 for m = 2..5, each under 60 s single-threaded."""
    for m, expected in [(2, 7), (3, 12), (4, 17), (5, 22)]:
        t0 = time.time()
        r = compute_f(ProblemSpec((m, m), 2))
        elapsed = time.time() - t0
        assert r.f_value == expected, (m, r.f_value)
        assert elapsed < 60, (m, elapsed)
        for c in r.certificates:
            assert c.length == expected - 1
            assert exists_solution(c, ProblemSpec((m, m), 2)) is None
    print("PASS criterion 1: f(m,m;2) = 7, 12, 17, 22 for m = 2..5")


def test_criterion_2_three_sets_closed_form() -> None:
    """f(m,m,m;2) for m = 2,3,4, plus the length-37 pair standing in for m=5."""
    t0 = time.time()
    for m, expected in [(2, 12), (3, 20)]:
        r = compute_f(ProblemSpec((m, m, m), 2))
        assert r.f_value == expected, (m, r.f_value)
    r = compute_f(ProblemSpec((4, 4, 4), 2), SearchConfig(worker_count=8))
    elapsed = time.time() - t0
    assert r.f_value == 29
    assert elapsed < 3600, elapsed

    # the m = 5 lower bound as a verified construction (the full search is
    # the slow stretch entry below)
    c = lower_bound_coloring(5)
    assert c.length == 37
    assert verify_avoiding(c, ProblemSpec((5, 5, 5), 2)).avoids
    print("PASS criterion 2: f(m,m,m;2) = 12, 20, 29 for m = 2..4; "
          "verified avoiding coloring of length 37 for m = 5")


@pytest.mark.slow
def test_criterion_2_stretch_m5_search() -> None:
    """Full search value for f(5,5,5;2); about 40-70 s on 2 vCPUs."""
    r = compute_f(ProblemSpec((5, 5, 5), 2), SearchConfig(worker_count=8))
    assert r.f_value == 38
    assert r.certificates[0].length == 37
    print("PASS criterion 2 (stretch): f(5,5,5;2) = 38 by search")


def test_criterion_3_three_colors() -> None:
    """f(2,2;3) = 11 under 10 minutes; the m=3 stretch comes along free."""
    t0 = time.time()
    r = compute_f(ProblemSpec((2, 2), 3))
    elapsed = time.time() - t0
    assert r.f_value == 11
    assert elapsed < 600, elapsed
    assert compute_f(ProblemSpec((3, 3), 3)).f_value == 20
    print("PASS criterion 3: f(2,2;3) = 11; stretch f(3,3;3) = 20")


def test_criterion_4_four_colors() -> None:
    """f(2,2;4) = 15 exactly, and an avoiding 4-coloring of [1,14] exists."""
    r = compute_f(ProblemSpec((2, 2), 4))
    if r.inconclusive:
        pytest.fail(f"inconclusive at cap {r.n_cap}; expected exact 15")
    assert r.f_value == 15
    found = enumerate_avoiding(ProblemSpec((2, 2), 4), 14)[:1]
    assert len(found) == 1
    assert exists_solution(found[0], ProblemSpec((2, 2), 4)) is None
    print("PASS criterion 4: f(2,2;4) = 15 exact; avoiding coloring "
          f"at 14: {format_run_string(found[0])}")


def test_criterion_5_strict_variant() -> None:
    """f*(2,2;2) = 9 under 60 s."""
    t0 = time.time()
    r = compute_f(
        ProblemSpec((2, 2), 2, strict=True), SearchConfig(n_cap=12)
    )
    elapsed = time.time() - t0
    assert r.f_value == 9
    assert elapsed < 60, elapsed
    print("PASS criterion 5: f*(2,2;2) = 9")


def test_criterion_6_constructions() -> None:
    """Lower-bound colorings: length and avoidance to m = 500, extension
    behavior to m = 200, all inside 10 minutes."""
    t0 = time.time()
    for m in range(2, 501):
        c = lower_bound_coloring(m)
        spec = ProblemSpec((m, m, m), 2)
        assert c.length == formula_f_mmm2(m) - 1, m
        assert verify_avoiding(c, spec).avoids, m
        if m <= 200:
            for color in (0, 1):
                w = exists_solution(c.extended(color), spec)
                assert w is not None, (m, color)
                validate_witness(w, c.extended(color), spec)
    elapsed = time.time() - t0
    assert elapsed < 600, elapsed
    print(f"PASS criterion 6: constructions m = 2..500 avoid at length "
          f"f-1; both extensions solve for m = 2..200  [{elapsed:.1f}s]")


def test_criterion_7_lemma_sweeps() -> None:
    """Zero violations over every 2-coloring of [1, 3m-2] for m = 2..5."""
    totals = {}
    for m in (2, 3, 4, 5):
        report = sweep_lemmas(m)  # raises on any violation
        totals[m] = report.total
    assert totals == {2: 16, 3: 128, 4: 1024, 5: 8192}
    print("PASS criterion 7: lemma sweeps clean for m = 2..5 "
          f"({sum(totals.values())} colorings)")


@pytest.mark.slow
def test_criterion_7_lemma_sweep_m6() -> None:
    report = sweep_lemmas(6)
    assert report.total == 65536
    assert report.case_counts == {
        "no_b1": 32, "i": 13018, "ii": 28178, "iii": 24308,
    }
    assert report.branch_counts == {"no_big_set": 32, "big_set": 65504}
    print("PASS criterion 7 (slow entry): lemma sweep clean at m = 6")


def test_criterion_8_oracle_equivalence() -> None:
    """exists_solution against brute force: exhaustive small, random N=18."""
    spec3 = ProblemSpec((2, 2, 2), 2)
    for bits in range(1 << 12):
        c = Coloring([(bits >> x) & 1 for x in range(12)], 2)
        assert (exists_solution(c, spec3) is None) == (
            brute_force_exists(c, spec3) is None
        ), c

    spec2 = ProblemSpec((2, 2), 2)
    for bits in range(1 << 14):
        c = Coloring([(bits >> x) & 1 for x in range(14)], 2)
        assert (exists_solution(c, spec2) is None) == (
            brute_force_exists(c, spec2) is None
        ), c

    rng = random.Random(20260816)
    specs = [spec2, spec3, ProblemSpec((3, 3), 2, strict=True)]
    for _ in range(10_000):
        s = rng.choice(specs)
        c = Coloring([rng.randrange(2) for _ in range(18)], 2)
        assert (exists_solution(c, s) is None) == (
            brute_force_exists(c, s) is None
        ), (s.label(), c)
    print("PASS criterion 8: oracle equivalence on 2^12 + 2^14 exhaustive "
          "and 10^4 random instances")


def test_criterion_9_worker_determinism(monkeypatch) -> None:
    """Worker counts 1, 4, 8 give identical values, certificate sets, node
    counts and depths. Eight usable CPUs are patched in, so 4 and 8
    workers cut 4 and 8 parts on any host."""
    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 8)
    for m in (2, 3, 4):
        spec = ProblemSpec((m, m, m), 2)
        outcomes = []
        for w in (1, 4, 8):
            r = compute_f(
                spec, SearchConfig(mode="all_certificates", worker_count=w)
            )
            outcomes.append((
                r.f_value,
                tuple(c.digits for c in r.certificates),
                r.stats.nodes_expanded,
                r.stats.max_depth,
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2], m
    print("PASS criterion 9: identical results and node counts across "
          "worker counts 1/4/8")
