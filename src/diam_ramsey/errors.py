"""Exception types raised across the package.

Everything inherits from DiamRamseyError so callers can catch the whole
family at once. IncrementalState raises none of them: its extend reports
a solution by returning True and refuses a bad color with ValueError.
The CLI exits 1 on FormulaContradictedError and LemmaViolationError and
2 on every other error.
"""

from __future__ import annotations

__all__ = [
    "DiamRamseyError",
    "ColoringParseError",
    "OracleCapError",
    "SearchBudgetError",
    "FormulaContradictedError",
    "LemmaViolationError",
]


class DiamRamseyError(Exception):
    """Base class for all package-specific errors.

    The message is args[0] and each keyword field becomes an attribute, so
    the default exception pickling rebuilds an error that crosses from a
    pool worker with every field. str() fills the class's _template from
    the message and the fields.
    """

    _template = "{message}"

    def __init__(self, message: str, **fields: object) -> None:
        super().__init__(message)
        self.__dict__.update(fields)

    def __str__(self) -> str:
        return self._template.format(message=self.args[0], **self.__dict__)


class ColoringParseError(DiamRamseyError):
    """A run-length coloring string could not be parsed.

    Attributes:
        token: the offending fragment of the input.
        offset: 0-based character offset of the fragment in the input.
    """

    _template = "{message} (token {token!r} at offset {offset})"


class OracleCapError(DiamRamseyError):
    """The brute-force oracle refused an input beyond its length cap."""


class SearchBudgetError(DiamRamseyError):
    """A search exceeded its node budget and aborted.

    Attributes:
        stats: partial SearchStats collected before the abort.
    """


class FormulaContradictedError(DiamRamseyError):
    """Search found an avoiding coloring that contradicts a closed form.

    This is the loud failure mode: it means either the search or the
    closed-form table is wrong, and nothing downstream should proceed.

    Attributes:
        coloring: the contradicting Coloring.
        expected: the closed-form value that was contradicted.
    """


class LemmaViolationError(DiamRamseyError):
    """A structural invariant that should hold unconditionally failed.

    Raised by the structure validator when a coloring that satisfies a
    lemma's hypotheses violates its conclusion.

    Attributes:
        coloring: the violating Coloring.
        clause: which clause of which lemma failed.
    """

    _template = "LEMMA VIOLATION: {message} [clause: {clause}]"
