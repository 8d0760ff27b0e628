"""Lower-bound colorings for the three-set problem."""

from __future__ import annotations

import random

import pytest

from diam_ramsey import (
    Coloring,
    IncrementalState,
    ProblemSpec,
    exists_solution,
    format_run_string,
    formula_f_mmm2,
    lower_bound_coloring,
    lower_bound_runs,
    validate_witness,
    verify_avoiding,
)


def test_special_string_m2() -> None:
    c = lower_bound_coloring(2)
    assert "".join(map(str, c.digits)) == "10101101110"
    assert c.length == formula_f_mmm2(2) - 1 == 11


def test_special_string_m5() -> None:
    c = lower_bound_coloring(5)
    assert format_run_string(c) == "01^40^41^40^81^40^21^70^3"
    assert c.length == formula_f_mmm2(5) - 1 == 37


def test_family_variant_selection() -> None:
    # m = 2 and m = 5 use their special strings unless force_general is set
    for m in (2, 5):
        assert lower_bound_runs(m) != lower_bound_runs(m, force_general=True)
        assert len(lower_bound_runs(m, force_general=True)) == 9
    assert lower_bound_runs(3) == lower_bound_runs(3, force_general=True)


def test_force_general_is_one_shorter_at_exceptions() -> None:
    # at m = 2 and m = 5 the general family misses the closed form by one
    for m in (2, 5):
        general = lower_bound_coloring(m, force_general=True)
        assert general.length == formula_f_mmm2(m) - 2
        assert verify_avoiding(general, ProblemSpec((m, m, m), 2)).avoids
    # elsewhere the general family is the construction
    assert lower_bound_coloring(3, force_general=True) == lower_bound_coloring(3)


def test_runs_concatenate_to_coloring() -> None:
    for m in (2, 3, 5, 8):
        digits: list[int] = []
        for color, k in lower_bound_runs(m):
            assert k >= 0
            digits.extend([color] * k)
        assert tuple(digits) == lower_bound_coloring(m).digits


def test_length_identity_huge_m() -> None:
    # run-length arithmetic only; no coloring is materialized
    for m in (10, 1000, 10**6, 10**6 + 1, 10**6 + 2):
        assert sum(k for _c, k in lower_bound_runs(m)) == formula_f_mmm2(m) - 1


def test_avoids_small_range() -> None:
    for m in range(2, 41):
        c = lower_bound_coloring(m)
        report = verify_avoiding(c, ProblemSpec((m, m, m), 2))
        assert report.avoids and report.witness is None
        assert report.length == c.length


def test_extensions_force_solution_small_range() -> None:
    """One more position of either color completes a chain."""
    for m in range(2, 31):
        c = lower_bound_coloring(m)
        spec = ProblemSpec((m, m, m), 2)
        for color in (0, 1):
            assert exists_solution(c.extended(color), spec) is not None, (
                m, color,
            )


def test_flips_and_their_extensions_agree_with_a_replay() -> None:
    """Long colorings near the constructions, m up to 120: the suffix DP's
    verdict equals an incremental replay, and every witness validates."""
    rng = random.Random(5122)
    found = avoided = 0
    for _ in range(40):
        m = rng.randint(2, 120)
        digits = list(lower_bound_coloring(m).digits)
        for p in rng.sample(range(len(digits)), rng.randint(1, 3)):
            digits[p] = 1 - digits[p]
        flip = Coloring(digits, 2)
        spec = ProblemSpec((m, m, m), 2, rng.random() < 0.5)
        for c in (flip, flip.extended(0), flip.extended(1)):
            w = exists_solution(c, spec)
            state = IncrementalState(spec)
            assert (w is None) == (not any(map(state.extend, c.digits))), (
                m, spec.strict, format_run_string(c),
            )
            if w is None:
                avoided += 1
            else:
                validate_witness(w, c, spec)
                found += 1
    assert (found, avoided) == (117, 3)


def test_verify_reports_witness_when_not_avoiding() -> None:
    spec = ProblemSpec((2, 2), 2)
    c = lower_bound_coloring(2)  # length 11 >= f(2,2;2) = 7
    report = verify_avoiding(c, spec)
    assert not report.avoids
    assert report.witness is not None
    doc = report.to_json()
    assert doc["avoids"] is False
    assert doc["witness"]["sets"] == [list(s.elements) for s in report.witness.sets]
    assert doc["spec"] == spec.to_json()


def test_validation() -> None:
    with pytest.raises(ValueError):
        lower_bound_coloring(1)
    with pytest.raises(ValueError):
        lower_bound_runs(1, force_general=True)
