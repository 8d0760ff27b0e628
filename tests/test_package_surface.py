"""The package's public names and its errors, pinned by value.

The package namespace is built from the modules' own __all__ lists, and
the errors cross process boundaries by pickling when a search or sweep
runs on more than one worker. These tests fix the exact public names,
every public callable's parameters, and for each error its message, its
fields and its pickle round trip.
"""

from __future__ import annotations

import inspect
import pickle
from collections import Counter

import pytest

import diam_ramsey
from diam_ramsey import (
    Coloring,
    ColoringParseError,
    FlaggedStateError,
    FormulaContradictedError,
    LemmaViolationError,
    OracleCapError,
    SearchBudgetError,
    SearchStats,
    checker,
    coloring,
    constructions,
    errors,
    lemmas,
    search,
)

_PUBLIC = [
    "Coloring",
    "ColoringParseError",
    "DiamRamseyError",
    "ExtremalB1",
    "FlaggedStateError",
    "FormulaContradictedError",
    "IncrementalState",
    "IntSet",
    "Lemma21Case",
    "Lemma22Finding",
    "LemmaSweepReport",
    "LemmaViolationError",
    "OracleCapError",
    "ProblemSpec",
    "SearchBudgetError",
    "SearchConfig",
    "SearchResult",
    "SearchStats",
    "VerificationReport",
    "Witness",
    "__version__",
    "brute_force_exists",
    "check_lemma22",
    "classify_lemma21",
    "compute_f",
    "enumerate_avoiding",
    "exists_solution",
    "find_extremal_b1",
    "format_run_string",
    "formula_f_mmm2",
    "known_value",
    "lower_bound_coloring",
    "lower_bound_runs",
    "parse_run_string",
    "sweep_lemmas",
    "validate_witness",
    "verify_avoiding",
]


def test_public_names_are_pinned() -> None:
    assert sorted(diam_ramsey.__all__) == _PUBLIC
    for name in _PUBLIC:
        assert getattr(diam_ramsey, name) is not None


# Every public callable's parameters, defaults included; a class's are its
# __init__'s. An option added or removed has to change this table.
_SIGNATURES = {
    "Coloring": "digits, num_colors",
    "ColoringParseError": "message, **fields",
    "DiamRamseyError": "message, **fields",
    "ExtremalB1": "b1, color_c1, beta, alpha",
    "FlaggedStateError": "message, **fields",
    "FormulaContradictedError": "message, **fields",
    "IncrementalState": "spec",
    "IntSet": "elements",
    "Lemma21Case": "case_tag, mask, mu, nu, h_strings",
    "Lemma22Finding":
        "branch, d1=None, d2=None, a1=None, a2=None, a3=None, case=None",
    "LemmaSweepReport": "m, total, case_counts, branch_counts, ties=0",
    "LemmaViolationError": "message, **fields",
    "OracleCapError": "message, **fields",
    "ProblemSpec": "sizes, num_colors, strict=False",
    "SearchBudgetError": "message, **fields",
    "SearchConfig":
        "n_cap=None, mode='one_certificate', worker_count=1, max_nodes=None",
    "SearchResult": "spec, f_value, inconclusive, n_cap, certificates, stats",
    "SearchStats": "nodes_expanded, max_depth, wall_time, worker_count",
    "VerificationReport": "avoids, witness, length, spec",
    "Witness": "sets, colors",
    "brute_force_exists": "c, spec",
    "check_lemma22": "c, m",
    "classify_lemma21": "c, m",
    "compute_f": "spec, config=None",
    "enumerate_avoiding": "spec, length",
    "exists_solution": "c, spec",
    "find_extremal_b1": "c, m",
    "format_run_string": "c",
    "formula_f_mmm2": "m",
    "known_value": "spec",
    "lower_bound_coloring": "m, force_general=False",
    "lower_bound_runs": "m, force_general=False",
    "parse_run_string": "s, num_colors",
    "sweep_lemmas": "m, workers=1",
    "validate_witness": "w, c, spec",
    "verify_avoiding": "c, spec",
}


def _parameters(obj) -> str:
    """obj's parameters as "a, b=1, **c": names, defaults and stars."""
    out = []
    for p in inspect.signature(obj).parameters.values():
        star = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "")
        default = "" if p.default is p.empty else f"={p.default!r}"
        out.append(f"{star}{p.name}{default}")
    return ", ".join(out)


def test_public_signatures_are_pinned() -> None:
    public = [getattr(diam_ramsey, name) for name in _PUBLIC]
    assert {
        name: _parameters(obj)
        for name, obj in zip(_PUBLIC, public)
        if callable(obj)
    } == _SIGNATURES


def test_no_name_is_exported_by_two_modules() -> None:
    """A star re-export would let the later module shadow the earlier."""
    counts = Counter(
        name
        for mod in (coloring, checker, search, constructions, lemmas, errors)
        for name in mod.__all__
    )
    assert [name for name, k in counts.items() if k > 1] == []


# A coloring of [1, 3m-2] for m = 2.
_LEMMA_COLORING = Coloring([0, 0, 1, 1], 2)
# A float where a count belongs.
_FLOAT_COUNTS = {
    "Coloring": (Coloring, [0, 1], 2.0),
    "parse_run_string": (diam_ramsey.parse_run_string, "01", 2.0),
    "parse_run_string-digit": (diam_ramsey.parse_run_string, "3", 2.5),
    "lower_bound_coloring": (diam_ramsey.lower_bound_coloring, 3.0),
    "lower_bound_runs": (diam_ramsey.lower_bound_runs, 3.0),
    "formula_f_mmm2": (diam_ramsey.formula_f_mmm2, 3.0),
    "sweep_lemmas-m": (diam_ramsey.sweep_lemmas, 2.0),
    "sweep_lemmas-workers": (diam_ramsey.sweep_lemmas, 2, 1.5),
    "find_extremal_b1": (diam_ramsey.find_extremal_b1, _LEMMA_COLORING, 2.0),
    "classify_lemma21": (diam_ramsey.classify_lemma21, _LEMMA_COLORING, 2.0),
    "check_lemma22": (diam_ramsey.check_lemma22, _LEMMA_COLORING, 2.0),
}


@pytest.mark.parametrize("call", _FLOAT_COUNTS.values(), ids=_FLOAT_COUNTS)
def test_non_integer_counts_raise_value_error(call) -> None:
    """Not a TypeError from range() and not a float result."""
    fn, *args = call
    with pytest.raises(ValueError, match=r"must be an integer, got \d\.\d$"):
        fn(*args)


_ERRORS = [
    (
        ColoringParseError("expected a color digit", token="a", offset=2),
        "expected a color digit (token 'a' at offset 2)",
        {"token": "a", "offset": 2},
    ),
    (
        FlaggedStateError(
            "state already contains a solution; retract before extending"
        ),
        "state already contains a solution; retract before extending",
        {},
    ),
    (
        OracleCapError("oracle capped at N <= 24, got N = 30"),
        "oracle capped at N <= 24, got N = 30",
        {},
    ),
    (
        SearchBudgetError(
            "node budget 10 exhausted for f(3,3,3;2) "
            "(deepest avoiding length so far: 7)",
            stats=SearchStats(
                nodes_expanded=11, max_depth=7, wall_time=0.25, worker_count=2
            ),
        ),
        "node budget 10 exhausted for f(3,3,3;2) "
        "(deepest avoiding length so far: 7)",
        {"stats": SearchStats(11, 7, 0.25, 2)},
    ),
    (
        FormulaContradictedError(
            "avoiding coloring of length 5 found, but f(2,2;2) = 5 was "
            "expected: FORMULA CONTRADICTED",
            coloring=Coloring([0, 1, 1, 0, 0], 2),
            expected=5,
        ),
        "avoiding coloring of length 5 found, but f(2,2;2) = 5 was "
        "expected: FORMULA CONTRADICTED",
        {"coloring": Coloring([0, 1, 1, 0, 0], 2), "expected": 5},
    ),
    (
        LemmaViolationError(
            "no structural case matches 0^21^2 (m=2, beta=0, alpha=0)",
            coloring=_LEMMA_COLORING,
            clause="lemma 2.1: disjunction (i)/(ii)/(iii)",
        ),
        "LEMMA VIOLATION: no structural case matches 0^21^2 "
        "(m=2, beta=0, alpha=0) [clause: lemma 2.1: disjunction (i)/(ii)/(iii)]",
        {"coloring": _LEMMA_COLORING,
         "clause": "lemma 2.1: disjunction (i)/(ii)/(iii)"},
    ),
]


@pytest.mark.parametrize(
    "error, text, fields", _ERRORS, ids=[type(e).__name__ for e, _, _ in _ERRORS]
)
def test_error_text_fields_and_pickle(error, text, fields) -> None:
    assert isinstance(error, diam_ramsey.DiamRamseyError)
    assert str(error) == text
    for name, value in fields.items():
        assert getattr(error, name) == value
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == text
    for name, value in fields.items():
        assert getattr(copy, name) == value
