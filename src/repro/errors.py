"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A table, column, or type constraint was violated."""


class PlanError(ReproError):
    """A query plan is malformed or cannot be analysed."""


class SelfJoinError(PlanError):
    """Two join inputs share lineage (Proposition 6 precondition).

    The GUS join rule requires ``L(R1) ∩ L(R2) = ∅``; self-joins create
    dependencies that first- and second-order inclusion probabilities
    cannot capture (paper, Section 9).
    """


class NotGUSError(ReproError):
    """A sampling method cannot be expressed as a GUS quasi-operator.

    Raised, e.g., for with-replacement sampling, which produces
    duplicates and therefore is not a randomized *filter*.
    """


class LatticeError(ReproError):
    """A subset-lattice operation received inconsistent dimensions."""


class EstimationError(ReproError):
    """The estimator was given inputs it cannot analyse."""


class ExecutionError(ReproError):
    """A plan could not be executed (e.g. a bare GUS quasi-operator)."""


class SQLError(ReproError):
    """SQL text could not be lexed, parsed, or planned."""


class StorageError(ReproError):
    """The on-disk columnar layout is missing, torn, or inconsistent.

    Raised when a column file's size disagrees with the footer, the
    footer itself is absent or unparsable, or a dtype in the footer is
    not one the reader supports.  A torn write must fail loud here
    rather than surface later as silently-wrong numbers.
    """


class ServeError(ReproError):
    """A failure in the network serving tier."""


class ProtocolError(ServeError):
    """A client frame could not be decoded or validated.

    Carries a machine-readable ``code`` so the wire error response can
    tell malformed JSON from a well-formed but invalid request.
    """

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


class QueryCancelled(ServeError):
    """The client went away; the in-flight ladder was abandoned."""


class DeadlineExceeded(ServeError):
    """The per-request deadline passed before the budget was met."""


class SQLSyntaxError(SQLError):
    """The SQL text violates the grammar.

    Carries the offending position so callers can point at the token.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at offset {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position
