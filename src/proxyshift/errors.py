"""Exception hierarchy shared by all proxyshift modules."""


class ProxyShiftError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProxyShiftError, ValueError):
    """A probability object violates its structural invariants."""


class SingularMatrixError(ProxyShiftError):
    """A pseudo-inverse was requested for a numerically singular system."""


class RankDeficiencyError(ProxyShiftError):
    """The proxy conditional matrix does not have full row rank.

    Carries the offending condition number so callers can report how close
    the input was to satisfying the rank requirement.
    """

    def __init__(self, message: str, kappa: float | None = None):
        super().__init__(message)
        self.kappa = kappa


class EmptyCellError(ProxyShiftError):
    """An estimator denominator has zero observed mass.

    ``cell`` describes the offending cell, e.g. ``"(x=1, e=2)"`` or
    ``"target"``.
    """

    def __init__(self, message: str, cell: str | None = None):
        super().__init__(message)
        self.cell = cell


class ZeroDenominatorError(ProxyShiftError):
    """A baseline estimator conditional has no in-scope observations."""


class OutOfSupportError(ProxyShiftError):
    """A continuous proxy value falls outside the declared partition support."""


class DatasetFormatError(ProxyShiftError, ValueError):
    """A dataset or model file violates its schema."""


class BootstrapError(ProxyShiftError):
    """Too many bootstrap resamples failed to produce an estimate."""


class FilterExhaustedError(ProxyShiftError):
    """The model-draw budget ran out before enough draws passed the filter."""
