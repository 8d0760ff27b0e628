"""Exception types raised across the package.

Everything inherits from DiamRamseyError so callers can catch the whole
family at once; the CLI maps these to exit code 2 (usage/input problems)
or propagates them as hard failures.
"""

from __future__ import annotations

__all__ = [
    "DiamRamseyError",
    "ColoringParseError",
    "FlaggedStateError",
    "OracleCapError",
    "SearchBudgetError",
    "FormulaContradictedError",
    "LemmaViolationError",
]


class DiamRamseyError(Exception):
    """Base class for all package-specific errors."""


class ColoringParseError(DiamRamseyError):
    """A run-length coloring string could not be parsed.

    Attributes:
        token: the offending fragment of the input.
        offset: 0-based character offset of the fragment in the input.
    """

    def __init__(self, message: str, token: str, offset: int) -> None:
        super().__init__(f"{message} (token {token!r} at offset {offset})")
        self.raw_message = message
        self.token = token
        self.offset = offset

    def __reduce__(self):
        return (self.__class__, (self.raw_message, self.token, self.offset))


class FlaggedStateError(DiamRamseyError):
    """An incremental checker state was extended after reporting a solution."""


class OracleCapError(DiamRamseyError):
    """The brute-force oracle refused an input beyond its length cap."""


class SearchBudgetError(DiamRamseyError):
    """A search exceeded its node budget and aborted.

    Attributes:
        stats: partial SearchStats collected before the abort.
    """

    def __init__(self, message: str, stats: object) -> None:
        super().__init__(message)
        self.stats = stats

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.stats))


class FormulaContradictedError(DiamRamseyError):
    """Search found an avoiding coloring that contradicts a closed form.

    This is the loud failure mode: it means either the search or the
    closed-form table is wrong, and nothing downstream should proceed.

    Attributes:
        coloring: the contradicting Coloring.
        expected: the closed-form value that was contradicted.
    """

    def __init__(self, message: str, coloring: object, expected: int) -> None:
        super().__init__(message)
        self.coloring = coloring
        self.expected = expected

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.coloring, self.expected))


class LemmaViolationError(DiamRamseyError):
    """A structural invariant that should hold unconditionally failed.

    Carries the coloring and a description of the failed clause; raised by
    the structure validator when a coloring that satisfies a lemma's
    hypotheses violates its conclusion.
    """

    def __init__(self, message: str, coloring: object, clause: str) -> None:
        super().__init__(f"LEMMA VIOLATION: {message} [clause: {clause}]")
        self.raw_message = message
        self.coloring = coloring
        self.clause = clause

    def __reduce__(self):
        return (self.__class__, (self.raw_message, self.coloring, self.clause))
