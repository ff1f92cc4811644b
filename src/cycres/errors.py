"""Exception types shared across the package, one per CLI exit code.

    ValidationError      exit 2  the input file, its digraph or an option
                                 is malformed or out of range
    NotIrreducibleError  exit 3  the matrix is reducible (its digraph is not
                                 strongly connected) where irreducible is
                                 required
    InternalError        exit 1  an internal consistency check failed

Every raise in the package builds one of these three.
"""


class CycresError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CycresError):
    """Input digraph, matrix or option violates a structural requirement."""


class NotIrreducibleError(CycresError):
    """The matrix is not irreducible (its digraph is not strongly connected)."""


class InternalError(CycresError):
    """An internal consistency check failed; indicates a bug."""
