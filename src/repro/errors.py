"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """A graph representation is malformed or inconsistent.

    Raised when CSR/COO invariants are violated: offsets not monotone,
    edge endpoints out of range, array length mismatches, and so on.
    """


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is outside its valid domain."""


class SchedulingError(ReproError):
    """A scheduler produced an inconsistent execution plan."""


class SimulationError(ReproError):
    """The hardware simulator was driven into an invalid state."""


class ConvergenceError(ReproError):
    """An iterative computation failed to converge within its budget."""


class GuardError(ReproError):
    """A checked result diverged from what it must show: a paper
    experiment's claim failed, or a bench row's answers or statuses
    differ from their oracle.  Raised instead of ``assert`` so that
    ``python -O`` still checks."""


def require(ok: bool, message: str) -> None:
    """Raise :class:`GuardError` unless ``ok`` (an ``assert`` that
    ``python -O`` cannot strip)."""
    if not ok:
        raise GuardError(message)


class ServiceError(ReproError):
    """Base class for errors raised by the query service (`repro.serve`)."""


class AdmissionError(ServiceError):
    """A request was refused at admission (bounded queue full / shedding)."""


class ThrottledError(AdmissionError):
    """A request exceeded its client's token-bucket rate limit.

    Distinct from generic shedding: throttling is per-client back-pressure
    (the client is over its budget), not a statement about service load.
    """


class DeadlineExceededError(ServiceError):
    """A request's deadline passed before a result could be delivered."""


class WorkerFailureError(ServiceError):
    """A service worker failed while executing a batch.

    Wraps the underlying cause so callers see a structured service error
    while the original exception type/message stay inspectable.
    """
