"""Tests for first-order residual autocorrelation.

The chi-square procedure built on the Durbin-Watson statistic, Durbin's
h-test, both order-1 portmanteau tests and the order-1 Breusch-Godfrey LM
test, all reported through a common outcome record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateResiduals,
    DomainError,
    InapplicableH,
    NearZeroThetaP,
    SingularAuxiliaryRegression,
)
from .estimators import (
    NEAR_ZERO_THETA_P, FitResult, _checked_solve, _residual_energy, lag_matrix,
)
from .text import csv_text

_STANDARD_NORMAL = NormalDist()


def chi2_sf(x: float) -> float:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    if x < 0.0:
        raise DomainError("chi-square statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


def normal_sf(x: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def chi2_quantile(q: float) -> float:
    """(q)-quantile of the one-degree chi-square distribution: the square of
    the normal (1-q)/2 quantile (the lower tail keeps full precision as q -> 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    return normal_quantile(0.5 * (1.0 - q)) ** 2


def normal_quantile(q: float) -> float:
    """Standard normal (q)-quantile."""
    if not 0.0 < q < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(q)


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
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "level": self.level,
            "reject": self.reject,
            "warnings": list(self.warnings),
        }


def _outcome(name, stat, pval, level, warns=()) -> TestOutcome:
    pval = min(max(pval, 0.0), 1.0)
    return TestOutcome(
        name=name, statistic=float(stat), p_value=float(pval), level=float(level),
        reject=bool(pval < level), warnings=tuple(warns),
    )


def dw_chi2_test(fit: FitResult, level: float = 0.05) -> TestOutcome:
    """Chi-square test on the squared deviation of the DW statistic from 2.

    The statistic is n (D - 2)^2 / (4 theta_hat_p^2), referred to the upper
    tail of the one-degree chi-square distribution. Requires the fitted
    p-th coefficient to be away from zero.
    """
    tp = fit.theta_hat[-1]
    if abs(tp) <= NEAR_ZERO_THETA_P:
        raise NearZeroThetaP("p-th coefficient estimate is numerically zero")
    warns = list(fit.warnings)
    se_tp = math.sqrt(max(fit.var_theta1_hat, 0.0))
    if abs(tp) < 2.0 * se_tp:
        # a DW-based decision is uninformative when the p-th coefficient is
        # itself insignificant
        warns.append("theta_p_possibly_insignificant")
    stat = fit.n * (fit.dw - 2.0) ** 2 / (4.0 * tp * tp)
    return _outcome("dw_chi2", stat, chi2_sf(stat), level, warns)


def durbin_h_test(fit: FitResult, level: float = 0.05) -> TestOutcome:
    """Durbin's h-statistic tested as a standard normal deviate.

    Raises InapplicableH when the variance correction exceeds 1/n, the
    classical failure mode of the test on short series, or is undefined (NaN).
    """
    radicand = 1.0 - fit.n * fit.var_theta1_hat
    if not radicand > 0.0:
        raise InapplicableH(
            f"nonpositive radicand 1 - n*var = {radicand:.3g}"
        )
    h = fit.rho_hat * math.sqrt(fit.n / radicand)
    return _outcome("durbin_h", h, 2.0 * normal_sf(abs(h)), level, fit.warnings)


def _r1(eps: np.ndarray) -> float:
    eps = np.asarray(eps, dtype=float)
    return float(eps[1:] @ eps[:-1]) / _residual_energy(eps)


def box_pierce_test(eps: np.ndarray, level: float = 0.05) -> TestOutcome:
    """Order-1 Box-Pierce portmanteau statistic n r1^2 against chi-square."""
    n = len(eps)
    stat = n * _r1(eps) ** 2
    return _outcome("box_pierce", stat, chi2_sf(stat), level)


def ljung_box_test(eps: np.ndarray, level: float = 0.05) -> TestOutcome:
    """Order-1 Ljung-Box statistic n(n+2) r1^2 / (n-1) against chi-square."""
    n = len(eps)
    stat = n * (n + 2.0) * _r1(eps) ** 2 / (n - 1.0)
    return _outcome("ljung_box", stat, chi2_sf(stat), level)


def breusch_godfrey_test(
    x: np.ndarray, fit: FitResult, level: float = 0.05
) -> TestOutcome:
    """Order-1 LM test: residuals regressed on the lag vector and the lagged
    residual (zero-padded), statistic n R^2 against chi-square."""
    x = np.asarray(x, dtype=float)
    eps = fit.residuals
    L = lag_matrix(x, fit.p)
    Z = np.column_stack([L, eps[:-1]])
    y = eps[1:]
    tss = _residual_energy(y)
    Zy = Z.T @ y
    coef = _checked_solve(
        Z.T @ Z, Zy, SingularAuxiliaryRegression, "auxiliary Gram matrix"
    )
    stat = fit.n * (float(coef @ Zy) / tss)
    return _outcome("breusch_godfrey", stat, chi2_sf(max(stat, 0.0)), level)


#: every test under the one signature (x, fit, level), in reporting order
_TESTS = {
    "dw_chi2": lambda x, fit, level: dw_chi2_test(fit, level),
    "durbin_h": lambda x, fit, level: durbin_h_test(fit, level),
    "box_pierce": lambda x, fit, level: box_pierce_test(fit.residuals, level),
    "ljung_box": lambda x, fit, level: ljung_box_test(fit.residuals, level),
    "breusch_godfrey": breusch_godfrey_test,
}

TEST_NAMES = tuple(_TESTS)


def run_tests(
    x: np.ndarray,
    fit: FitResult,
    level: float = 0.05,
    names: tuple[str, ...] = TEST_NAMES,
) -> list[TestOutcome]:
    """Apply a batch of tests; inapplicable ones are reported as outcomes with
    a warning rather than aborting the batch.

    An unknown test name or a level outside (0, 1) raises ValueError before
    any test runs.
    """
    for name in names:
        if name not in _TESTS:
            raise ValueError(f"unknown test {name!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    out = []
    for name in names:
        try:
            out.append(_TESTS[name](x, fit, level))
        except (InapplicableH, NearZeroThetaP, DegenerateResiduals,
                SingularAuxiliaryRegression) as exc:
            out.append(_outcome(name, math.nan, math.nan, level,
                                ("inapplicable", type(exc).__name__)))
    return out


def outcomes_to_csv(outcomes: list[TestOutcome]) -> str:
    return csv_text(
        ("name", "statistic", "p_value", "reject", "warnings"),
        ((o.name, o.statistic, o.p_value, int(o.reject), ";".join(o.warnings))
         for o in outcomes),
    )
