"""Exception hierarchy shared by all impbox modules."""


class ImpboxError(Exception):
    """Base class for all errors raised by this library."""


class SpaceMismatchError(ImpboxError):
    """Two objects defined on different finite spaces were combined."""


class SpaceSizeError(ImpboxError):
    """The ground set is too large for exhaustive power-set work."""


class ValidationError(ImpboxError):
    """A representation violates one of its defining axioms.

    ``witness`` carries the offending item(s) when a concrete
    counterexample is available (e.g. a pair of events breaking
    monotonicity).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InfeasibleError(ImpboxError):
    """An operation required a non-empty credal set but got an empty one."""


class NotReachableError(ImpboxError):
    """A probability interval operation requires a reachable interval.

    Call ``normalize`` on the interval first.
    """


class OracleError(ImpboxError):
    """The credal oracle produced an answer that failed its exact certificate."""
