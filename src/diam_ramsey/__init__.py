"""Exact solver and verifier for nondecreasing-diameter Ramsey numbers.

f(m1, ..., mt; r) is the least N such that every r-coloring of [1, N]
contains a chain of sets B1 < B2 < ... < Bt (each below the next), with
|Bi| = mi, each set monochromatic, and nondecreasing diameters. The
package computes these values exactly by pruned search, emits and checks
the lower-bound colorings that make the values tight, and machine-checks
the structure lemmas behind the three-set closed form.

Entry points:

* compute_f / SearchConfig: exact values with certificates.
* exists_solution / brute_force_exists: polynomial checker and its
  brute-force reference oracle.
* lower_bound_coloring / verify_avoiding: constructions and verification.
* sweep_lemmas / classify_lemma21 / check_lemma22: structure validation.
* cli.main: the diam-ramsey command-line tool.
"""

from __future__ import annotations

from .checker import (
    IncrementalState,
    ProblemSpec,
    Witness,
    brute_force_exists,
    exists_solution,
    validate_witness,
)
from .coloring import (
    Coloring,
    IntSet,
    format_run_string,
    parse_run_string,
)
from .constructions import (
    VerificationReport,
    lower_bound_coloring,
    lower_bound_runs,
    verify_avoiding,
)
from .errors import (
    ColoringParseError,
    DiamRamseyError,
    FlaggedStateError,
    FormulaContradictedError,
    LemmaViolationError,
    OracleCapError,
    SearchBudgetError,
)
from .lemmas import (
    ExtremalB1,
    Lemma21Case,
    Lemma22Finding,
    LemmaSweepReport,
    check_lemma22,
    classify_lemma21,
    find_extremal_b1,
    sweep_lemmas,
)
from .search import (
    SearchConfig,
    SearchResult,
    SearchStats,
    compute_f,
    enumerate_avoiding,
    formula_f_mmm2,
    known_value,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coloring
    "Coloring",
    "IntSet",
    "parse_run_string",
    "format_run_string",
    # checker
    "ProblemSpec",
    "Witness",
    "validate_witness",
    "exists_solution",
    "brute_force_exists",
    "IncrementalState",
    # search
    "SearchConfig",
    "SearchStats",
    "SearchResult",
    "compute_f",
    "formula_f_mmm2",
    "known_value",
    "enumerate_avoiding",
    # constructions
    "VerificationReport",
    "lower_bound_runs",
    "lower_bound_coloring",
    "verify_avoiding",
    # lemmas
    "ExtremalB1",
    "Lemma21Case",
    "Lemma22Finding",
    "LemmaSweepReport",
    "find_extremal_b1",
    "classify_lemma21",
    "check_lemma22",
    "sweep_lemmas",
    # errors
    "DiamRamseyError",
    "ColoringParseError",
    "FlaggedStateError",
    "OracleCapError",
    "SearchBudgetError",
    "FormulaContradictedError",
    "LemmaViolationError",
]
