"""Exception types shared across the library.

Every error carries a short stable ``code`` string; the CLI prints it so
scripted callers can branch on failures without matching message text.
"""

__all__ = [
    "HvirError",
    "ParseError",
    "GroupMismatchError",
    "SubalgebraError",
    "CentralTermError",
    "IndexDomainError",
    "NotIntermediateSeriesError",
    "AmbiguousTableError",
    "NonConstantScalingError",
    "DisjointOverlapError",
]


class HvirError(Exception):
    """Base class for all library errors."""

    code = "error"


class ParseError(HvirError):
    """Malformed input text.  ``position`` is a 1-based offset when known."""

    code = "syntax"

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s at offset %d" % (message, position)
        super().__init__(message)
        self.position = position


class GroupMismatchError(HvirError):
    """Two values that must share an index group do not."""

    code = "group-mismatch"


class SubalgebraError(HvirError):
    """An index fell outside the subgroup it was required to lie in."""

    code = "subalgebra-violation"


class CentralTermError(HvirError):
    """The centerless rescaling was applied to a central element."""

    code = "central-term"


class IndexDomainError(HvirError):
    """A rescaling received an element outside its integer-indexed domain."""

    code = "index-domain"


class NotIntermediateSeriesError(HvirError):
    """An action table is inconsistent with the one-parameter family."""

    code = "not-intermediate-series"


class AmbiguousTableError(HvirError):
    """An action table is too sparse to pin down its parameters."""

    code = "ambiguous-table"


class NonConstantScalingError(HvirError):
    """Basis alignment found index-dependent scale factors."""

    code = "non-constant-scaling"


class DisjointOverlapError(HvirError):
    """Basis alignment needs at least two shared indices."""

    code = "disjoint-overlap"
