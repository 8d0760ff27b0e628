"""The names perfbench/ reaches in the package still resolve.

The benchmark calls the package through its public attributes and wraps
some methods by looking them up in the class dictionaries, so removing or
renaming any of these breaks it without failing another test. The search
must also call those methods through the class, or the wrapped call
counts read zero.
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


def test_class_level_wrappers_count_every_node(monkeypatch) -> None:
    """perfbench reads checker.extend.calls from wrappers installed on the
    class: the search must reach extend and retract through them, extend
    once per expanded node and retract once per avoiding node. A closing
    extend (one that returns True) changes nothing and is not retracted."""
    cls = diam_ramsey.IncrementalState
    calls = {"extend": 0, "retract": 0}
    closes = 0
    for attr in calls:
        orig = cls.__dict__[attr]

        def wrapper(*args, _orig=orig, _attr=attr):
            nonlocal closes
            calls[_attr] += 1
            out = _orig(*args)
            closes += out is True
            return out

        monkeypatch.setattr(cls, attr, wrapper)
    result = diam_ramsey.compute_f(
        diam_ramsey.ProblemSpec((3, 3, 3), 2),
        diam_ramsey.SearchConfig(mode="value_only", worker_count=1),
    )
    assert result.f_value == 20
    assert calls["extend"] == result.stats.nodes_expanded
    assert calls["retract"] == calls["extend"] - closes
    assert 0 < calls["retract"] < calls["extend"]
