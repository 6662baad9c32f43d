"""Tests for first-order residual autocorrelation.

The chi-square procedure built on the Durbin-Watson statistic, Durbin's
h-test, both order-1 portmanteau tests and the order-1 Breusch-Godfrey LM
test, all reported through a common outcome record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    SERIES, DegenerateResiduals, DomainError, InapplicableH, NearZeroThetaP, RowErrors,
    SingularAuxiliaryRegression,
)
from .estimators import (
    NEAR_ZERO_THETA_P, FitResult, _checked_solve, _dot, _residual_energy, lag_matrix,
)
from .limit_theory import _check_reals
from .text import csv_text, record_dict

_math_erfc = np.frompyfunc(math.erfc, 1, 1)


def _erfc(x):
    """math.erfc of each entry (numpy has no erfc), so that each p-value of a
    block is the one-series value bit for bit."""
    return np.asarray(_math_erfc(x), dtype=float)[()]


def chi2_sf(x):
    """Upper tail of the chi-square distribution with one degree of freedom.
    An x that does not hold real numbers raises ValueError."""
    x = _check_reals("statistic", x)
    if np.any(x < 0.0):
        raise DomainError("chi-square statistic must be nonnegative")
    return _erfc(np.sqrt(x / 2.0))


def normal_sf(x):
    """Upper tail of the standard normal distribution. An x that does not
    hold real numbers raises ValueError."""
    return 0.5 * _erfc(_check_reals("statistic", x) / math.sqrt(2.0))


def chi2_quantile(q: float) -> float:
    """(q)-quantile of the one-degree chi-square distribution: the square of
    the normal (1-q)/2 quantile (the lower tail keeps full precision as q -> 1).
    A q that is not a real number raises ValueError."""
    q = _check_reals("q", q, scalar=True)
    if not 0.0 < q < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    from statistics import NormalDist  # fractions and decimal, on first use only

    return NormalDist().inv_cdf(0.5 * (1.0 - q)) ** 2


@dataclass(frozen=True)
class TestOutcome:
    """One named test applied at one significance level."""

    name: str
    statistic: float
    p_value: float
    level: float
    reject: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return record_dict(self)


# Each test below works on one series or on each row of a block, as the
# estimators do: it returns the statistic, the p-value and, per advisory
# note, the mask of the rows it flags, and adds each row's error to `errors`.
# A square is np.float_power(v, 2), C pow as in Python's float **: v * v
# differs from it in the last bit for about one value in a thousand.

def _dw_chi2(x, fit, errors: RowErrors):
    """Notes carry the fit's own warnings first."""
    tp = fit.theta_hat[..., -1]
    errors.add(np.abs(tp) <= NEAR_ZERO_THETA_P, NearZeroThetaP,
               "p-th coefficient estimate is numerically zero")
    # a DW-based decision is uninformative when the p-th coefficient is
    # itself insignificant
    insignificant = np.abs(tp) < 2.0 * np.sqrt(np.maximum(fit.var_theta1_hat, 0.0))
    stat = fit.n * np.float_power(fit.dw - 2.0, 2) / (4.0 * tp * tp)
    return stat, chi2_sf(stat), [*((w, True) for w in fit.warnings),
                                 ("theta_p_possibly_insignificant", insignificant)]


def _durbin_h(x, fit, errors: RowErrors):
    radicand = 1.0 - fit.n * np.asarray(fit.var_theta1_hat)
    errors.add(~(radicand > 0.0), InapplicableH,
               lambda i: f"nonpositive radicand 1 - n*var = {radicand[i]:.3g}")
    h = fit.rho_hat * np.sqrt(fit.n / radicand)
    return h, 2.0 * normal_sf(np.abs(h)), [(w, True) for w in fit.warnings]


def _r1_squared(fit, errors: RowErrors):
    """The fit's r1^2, derived once per FitResult and shared by both
    portmanteau tests, each adding its zero-energy rows to its own errors."""
    r1_squared, zero = fit._r1_squared
    errors.add(zero, DegenerateResiduals, "zero residual energy")
    return r1_squared


def _box_pierce(x, fit, errors: RowErrors):
    stat = fit.residuals.shape[-1] * _r1_squared(fit, errors)
    return stat, chi2_sf(stat), []


def _ljung_box(x, fit, errors: RowErrors):
    n = fit.residuals.shape[-1]
    stat = n * (n + 2.0) * _r1_squared(fit, errors) / (n - 1.0)
    return stat, chi2_sf(stat), []


def _breusch_godfrey(x, fit, errors: RowErrors):
    # n R^2 on the lag vector and, in one more column, the lagged residual
    Z = lag_matrix(x, fit.p, fit.residuals[..., :-1])
    y = fit.residuals[..., 1:]
    tss = _residual_energy(y, errors)
    Zt = Z.swapaxes(-1, -2)
    Zy = Zt @ y[..., None]
    coef = _checked_solve(Zt @ Z, Zy, SingularAuxiliaryRegression, "auxiliary Gram matrix",
                          errors)
    stat = fit.n * (_dot(coef[..., 0], Zy[..., 0]) / tss)
    return stat, chi2_sf(np.maximum(stat, 0.0)), []


#: every test under the one signature (x, fit, errors), in reporting order
_TESTS = {
    "dw_chi2": _dw_chi2,
    "durbin_h": _durbin_h,
    "box_pierce": _box_pierce,
    "ljung_box": _ljung_box,
    "breusch_godfrey": _breusch_godfrey,
}

TEST_NAMES = tuple(_TESTS)


@np.errstate(all="ignore")
def outcome_masks(x: np.ndarray, fit: FitResult, fit_failed: np.ndarray, level: float,
                  names: tuple[str, ...]) -> dict:
    """Per test name, the masks (reject, inapplicable) over the rows of a
    block: a row whose fit failed is inapplicable for every test, and an
    inapplicable row never rejects."""
    out = {}
    for name in names:
        errors = RowErrors(len(x))
        p_value = _TESTS[name](x, fit, errors)[1]
        inapplicable = fit_failed | errors.failed
        out[name] = (p_value < level) & ~inapplicable, inapplicable
    return out


def _check_names(names) -> None:
    if isinstance(names, str) or not np.iterable(names):
        raise ValueError(f"names must be a list, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in _TESTS:
            raise ValueError(f"unknown test {name!r}")


def _check_level(level) -> float:
    level = _check_reals("level", level, scalar=True)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return level


def _check_fit(fit) -> FitResult:
    """fit, unless it is not the FitResult of one series: then ValueError."""
    if not (isinstance(fit, FitResult) and fit.residuals.ndim == 1):
        raise ValueError(f"fit must be the FitResult of one series, got {fit!r}")
    return fit


@np.errstate(all="ignore")
def _one(name: str, level: float, x, fit: FitResult, errors: RowErrors = SERIES) -> TestOutcome:
    """The outcome of the named test on one series. With SERIES its error
    raises; with a one-series record, RowErrors(()), the test is reported
    inapplicable with the error's type."""
    stat, p_value, notes = _TESTS[name](x, fit, errors)
    if errors.failed:
        stat = p_value = math.nan
        warns = ("inapplicable", type(errors.error(())).__name__)
    else:
        warns = tuple(note for note, on in notes if on)
    return TestOutcome(name, float(stat), float(p_value), level, bool(p_value < level), warns)


def dw_chi2_test(fit: FitResult, level: float = 0.05) -> TestOutcome:
    """Chi-square test on the squared deviation of the DW statistic from 2.

    The statistic is n (D - 2)^2 / (4 theta_hat_p^2), referred to the upper
    tail of the one-degree chi-square distribution. Requires the fitted
    p-th coefficient to be away from zero. A level that is not a real
    number in (0, 1) raises ValueError.
    """
    return _one("dw_chi2", _check_level(level), None, _check_fit(fit))


def durbin_h_test(fit: FitResult, level: float = 0.05) -> TestOutcome:
    """Durbin's h-statistic tested as a standard normal deviate.

    Raises InapplicableH when the variance correction exceeds 1/n, the
    classical failure mode of the test on short series, or is undefined (NaN).
    A level that is not a real number in (0, 1) raises ValueError.
    """
    return _one("durbin_h", _check_level(level), None, _check_fit(fit))


def run_tests(
    x: np.ndarray,
    fit: FitResult,
    level: float = 0.05,
    names: tuple[str, ...] = TEST_NAMES,
) -> list[TestOutcome]:
    """Apply a batch of tests to one series. A test whose kernel records an
    error, the error that makes a row of a block inapplicable in
    outcome_masks, is reported as an outcome with the warnings
    ("inapplicable", error type) rather than aborting the batch.

    An unknown test name, names given as a string, a level that is not a
    real number in (0, 1), a fit that is not the FitResult of one series, or
    an x (None included) not real or of another shape than the fit's
    residuals, raises ValueError before any test runs, whatever the names.
    """
    _check_names(names)
    level = _check_level(level)
    if np.shape(x) != _check_fit(fit).residuals.shape:
        raise ValueError(f"x must have shape {fit.residuals.shape}, the shape of the "
                         f"fit's residuals, got {np.shape(x)}")
    x = _check_reals("x", x)
    return [_one(name, level, x, fit, RowErrors(())) for name in names]


def outcomes_to_csv(outcomes: list[TestOutcome]) -> str:
    """One CSV line per outcome; anything but a list of TestOutcome raises
    ValueError."""
    rows = list(outcomes) if np.iterable(outcomes) else None
    if rows is None or not all(isinstance(o, TestOutcome) for o in rows):
        raise ValueError(f"outcomes must be a list of TestOutcome, got {outcomes!r}")
    return csv_text(
        ("name", "statistic", "p_value", "reject", "warnings"),
        ((o.name, o.statistic, o.p_value, int(o.reject), ";".join(o.warnings))
         for o in rows),
    )
