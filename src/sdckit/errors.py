"""Exception types shared across the toolkit.

Every error raised on purpose derives from SdcError so callers can catch the
whole family. Errors that point at data carry enough structure to name the
first offending location.
"""

from __future__ import annotations


class SdcError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- ingestion


class MalformedCsv(SdcError):
    pass


class MissingColumn(SdcError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"schema attribute {column!r} is absent from the csv header")


class DomainViolation(SdcError):
    def __init__(self, row: int, attribute: str, detail: str):
        self.row = row
        self.attribute = attribute
        super().__init__(f"row {row}, attribute {attribute!r}: {detail}")


# ------------------------------------------------------------- hierarchies


class UnknownValue(SdcError):
    pass


class LevelOutOfRange(SdcError):
    pass


class HierarchyMissing(SdcError):
    def __init__(self, attribute: str):
        self.attribute = attribute
        super().__init__(f"no generalization hierarchy declared for {attribute!r}")


# ------------------------------------------------------------ anonymization


class UnknownAttribute(SdcError):
    def __init__(self, attribute: str):
        self.attribute = attribute
        super().__init__(f"attribute {attribute!r} is not in the table schema")


class Unsatisfiable(SdcError):
    """No admissible masking reaches the requested anonymity level."""


class SearchSpaceTooLarge(SdcError):
    pass


class TooFewRows(SdcError):
    pass


class GroupTooSmall(SdcError):
    pass


class Misaligned(SdcError):
    pass


# ----------------------------------------------------- confidentiality models


class EmptyClass(SdcError):
    pass


class SupportMismatch(SdcError):
    pass


class NonNumeric(SdcError):
    pass


class InvalidT(SdcError):
    pass


class Infeasible(SdcError):
    """Constraint system admits no partition; names the failing constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        msg = f"infeasible constraint: {constraint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# ------------------------------------------------------------------ privacy


class UnboundedDomain(SdcError):
    pass


class NonPositiveEpsilon(SdcError):
    pass


class InvalidAlpha(SdcError):
    pass


class InvalidRho(SdcError):
    pass


class InvalidDelta(SdcError):
    pass


class MalformedLedger(SdcError):
    pass


class NotNeighbors(SdcError):
    pass


# ------------------------------------------------------------------ attacks


class NoSharedQIs(SdcError):
    pass


class MissingPartition(SdcError):
    pass


class NotMinimalMechanism(SdcError):
    pass
