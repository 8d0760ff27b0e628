"""Explicit lower-bound colorings for the three-set, two-color family.

For every m >= 2 there is a 2-coloring of [1, f(m,m,m;2) - 1] that avoids
solution chains, proving the lower half of the closed form. The general
pattern (with F = floor((2m-2)/3)) is

    0 1^(m-1) 0^(m-1) 1^(m-1) 0^F 1^(m-F-1) 0^(m-1) 1^(2m-1+F) 0^(m-1)

of length 8m-6+F, which is one short of the closed form except at
m in {2, 5}, where a longer ad-hoc coloring exists and the general
pattern gives away one position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checker import ProblemSpec, Witness, exists_solution
from .coloring import Coloring, _require_count

__all__ = [
    "lower_bound_runs",
    "lower_bound_coloring",
    "VerificationReport",
    "verify_avoiding",
]

_SPECIAL_M2 = "10101101110"
_SPECIAL_M5_RUNS = (
    (0, 1), (1, 4), (0, 4), (1, 4), (0, 8), (1, 4), (0, 2), (1, 7), (0, 3),
)


def lower_bound_runs(m: int, force_general: bool = False) -> tuple[tuple[int, int], ...]:
    """The construction as (color, run_length) pairs; lengths may be 0.

    Zero-length runs appear only in the general pattern at m = 2 and are
    dropped when the coloring is materialized; they are kept here so the
    run arithmetic matches the pattern shape exactly.
    """
    _require_count(m, "m", 2)
    if m == 2 and not force_general:
        return tuple((int(ch), 1) for ch in _SPECIAL_M2)
    if m == 5 and not force_general:
        return _SPECIAL_M5_RUNS
    f_run = (2 * m - 2) // 3
    assert m - f_run - 1 >= 0, "pattern run lengths must be nonnegative"
    return (
        (0, 1),
        (1, m - 1),
        (0, m - 1),
        (1, m - 1),
        (0, f_run),
        (1, m - f_run - 1),
        (0, m - 1),
        (1, 2 * m - 1 + f_run),
        (0, m - 1),
    )


def lower_bound_coloring(m: int, force_general: bool = False) -> Coloring:
    """The avoiding 2-coloring of length formula_f_mmm2(m) - 1.

    With force_general the general pattern is used even at m in {2, 5},
    where it only reaches formula_f_mmm2(m) - 2.
    """
    return Coloring._from_runs(lower_bound_runs(m, force_general), 2)


@dataclass(frozen=True)
class VerificationReport:
    avoids: bool
    witness: Witness | None
    length: int
    spec: ProblemSpec

    def to_json(self) -> dict:
        return {
            "avoids": self.avoids,
            "witness": None if self.witness is None else self.witness.to_json(),
            "length": self.length,
            "spec": self.spec.to_json(),
        }


def verify_avoiding(c: Coloring, spec: ProblemSpec) -> VerificationReport:
    """Check a coloring against a spec, reporting the witness when it fails.

    Uses the polynomial checker, so constructions far beyond enumeration
    scale (length in the thousands) verify in milliseconds.
    """
    w = exists_solution(c, spec)
    return VerificationReport(
        avoids=w is None, witness=w, length=c.length, spec=spec
    )
