"""Exception hierarchy shared across the package, and the first error of
each row of a block."""

import numpy as np


class ArdwError(Exception):
    """Base class for all package-specific errors."""


class UnstableTheta(ArdwError):
    """1-norm of the autoregressive coefficient vector is >= 1."""


class UnstableRho(ArdwError):
    """Serial correlation parameter has modulus >= 1."""


class ZeroTheta(ArdwError):
    """Autoregressive coefficient vector is identically zero."""


class BadVariance(ArdwError):
    """Noise variance is not strictly positive."""


class SingularB(ArdwError):
    """The (p+2)-order autocovariance system matrix is numerically singular."""


class NotPositiveDefinite(ArdwError):
    """A Toeplitz autocovariance matrix failed its positive definiteness check."""


class NoConvergence(ArdwError):
    """Fixed-point iteration failed to converge within the iteration cap."""


class SingularDesign(ArdwError):
    """Least squares design matrix is numerically singular."""


class SingularToeplitz(ArdwError):
    """Sample Toeplitz autocovariance matrix is numerically singular."""


class DegenerateResiduals(ArdwError):
    """Residual series has zero energy where a ratio requires it."""


class NearZeroThetaP(ArdwError):
    """Estimated p-th autoregressive coefficient is numerically zero."""


class InapplicableH(ArdwError):
    """Durbin's h-statistic is undefined (nonpositive radicand)."""


class SingularAuxiliaryRegression(ArdwError):
    """Auxiliary regression of the Breusch-Godfrey test is singular."""


class DomainError(ArdwError):
    """Argument outside the mathematical domain of a distribution utility."""


class RowErrors:
    """The first error of each row of a block, or, made without a row count,
    of one series, which raises it at once. Checks are added in the order in
    which they run, each as a row mask with its error type and message (a
    str, or a function of the row index giving one)."""

    def __init__(self, rows: int | None = None):
        self.failed = np.zeros(() if rows is None else rows, dtype=bool)
        self._one = rows is None
        self._checks = []

    def add(self, mask, error: type[Exception], message) -> None:
        first = mask & ~self.failed
        if first.any():
            if self._one:
                raise error(message(()) if callable(message) else message)
            self._checks.append((first, error, message))
            self.failed |= first

    def error(self, row: int) -> Exception | None:
        for mask, error, message in self._checks:
            if mask[row]:
                return error(message(row) if callable(message) else message)
        return None


#: the errors of one series: each is raised at once, so it never changes
SERIES = RowErrors()
