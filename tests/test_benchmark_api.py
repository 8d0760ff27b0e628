"""The names perfbench/ reaches in the package still resolve.

The benchmark calls the package through its public attributes and wraps
some methods by looking them up in the class dictionaries, so removing or
renaming any of these breaks it without failing another test.
"""

from __future__ import annotations

import diam_ramsey

_API = (
    "SearchConfig",
    "ProblemSpec",
    "compute_f",
    "known_value",
    "exists_solution",
    "validate_witness",
    "lower_bound_runs",
    "lower_bound_coloring",
    "verify_avoiding",
    "parse_run_string",
    "format_run_string",
    "formula_f_mmm2",
    "find_extremal_b1",
    "classify_lemma21",
    "check_lemma22",
    "sweep_lemmas",
)


def test_benchmark_names_resolve() -> None:
    missing = [name for name in _API if not hasattr(diam_ramsey, name)]
    assert missing == []
    assert "__init__" in diam_ramsey.Coloring.__dict__
    for attr in ("extend", "retract"):
        assert attr in diam_ramsey.IncrementalState.__dict__
