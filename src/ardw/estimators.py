"""Least squares machinery for an observed series.

Computes the autoregressive coefficient estimate, residual set, serial
correlation estimate, noise variance estimate and the Durbin-Watson
statistic, plus the Yule-Walker variant whose variance identity makes the
h-statistic collapse to a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ArdwError,
    DegenerateResiduals,
    SingularDesign,
    SingularToeplitz,
)
from .limit_theory import _symmetric_toeplitz

_COND_LIMIT = 1e14

#: |theta_hat_p| at or below which the p-th coefficient estimate counts as zero
NEAR_ZERO_THETA_P = 1e-12


def _checked_solve(G, b, error: type[ArdwError], what: str) -> np.ndarray:
    """Solve G z = b; raise `error` if cond(G) is not finite or > _COND_LIMIT."""
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise error(f"{what} singular (cond ~ {cond:.3g})")
    return np.linalg.solve(G, b)


def lag_matrix(x: np.ndarray, p: int) -> np.ndarray:
    """Rows are the lag vectors (X_j, X_{j-1}, ..., X_{j-p+1}) for j = 0..n-1,
    with zeros standing in for pre-sample indices."""
    n = x.shape[0] - 1
    L = np.zeros((n, p))
    for i in range(p):
        L[i:, i] = x[: n - i]
    return L


def ols_theta(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Least squares estimate of the autoregressive coefficients.

    Returns (theta_hat, S) where S is the accumulated lag-vector Gram matrix.
    A singular S raises SingularDesign. p < 1, or a series value that is not
    finite or has magnitude >= 1e150, raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if p < 1:
        raise ValueError(f"model order p must be >= 1, got {p}")
    if not np.all(np.abs(x) < 1e150):  # squares and their sums stay finite
        raise ValueError("series must contain only finite values below 1e150")
    if x.shape[0] < p + 2:
        raise SingularDesign(f"series length {x.shape[0]} < p+2 = {p + 2}")
    L = lag_matrix(x, p)
    S = L.T @ L
    rhs = L.T @ x[1:]
    theta_hat = _checked_solve(S, rhs, SingularDesign, "design Gram matrix")
    resid = np.linalg.norm(S @ theta_hat - rhs, np.inf)
    if resid > 1e-10 * max(np.linalg.norm(rhs, np.inf), 1.0):
        raise SingularDesign(f"normal equations residual too large: {resid:.3g}")
    return theta_hat, S


def residuals(x: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Residual series with the convention that the first residual is X_0."""
    x = np.asarray(x, dtype=float)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    L = lag_matrix(x, theta_hat.shape[0])
    eps = np.empty_like(x)
    eps[0] = x[0]
    eps[1:] = x[1:] - L @ theta_hat
    return eps


def ols_rho(eps: np.ndarray) -> float:
    """Lag-1 least squares coefficient of the residual series."""
    eps = np.asarray(eps, dtype=float)
    den = float(eps[:-1] @ eps[:-1])
    if den <= 0.0:
        raise DegenerateResiduals("zero energy in lagged residuals")
    return float(eps[1:] @ eps[:-1]) / den


def _residual_energy(eps: np.ndarray) -> float:
    """eps . eps; raises DegenerateResiduals when it is zero."""
    energy = float(eps @ eps)
    if energy <= 0.0:
        raise DegenerateResiduals("zero residual energy")
    return energy


def dw_statistic(eps: np.ndarray) -> float:
    """Durbin-Watson ratio; always in [0, 4]."""
    eps = np.asarray(eps, dtype=float)
    d = np.diff(eps)
    return float(d @ d) / _residual_energy(eps)


@dataclass(frozen=True)
class FitResult:
    """Everything the serial-correlation tests need from one series."""

    p: int
    n: int
    theta_hat: np.ndarray
    residuals: np.ndarray
    rho_hat: float
    sigma2_hat: float
    dw: float
    S_n: np.ndarray
    var_theta1_hat: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "theta_hat": self.theta_hat.tolist(),
            "rho_hat": self.rho_hat,
            "sigma2_hat": self.sigma2_hat,
            "dw": self.dw,
            "var_theta1_hat": self.var_theta1_hat,
            "warnings": list(self.warnings),
        }


def fit(x: np.ndarray, p: int) -> FitResult:
    """Full estimation pipeline for one observed series. sigma2_hat is NaN
    when theta_hat_p is numerically zero and may be negative on short series
    (only its limit is guaranteed); a note in warnings flags either case."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0] - 1
    theta_hat, S = ols_theta(x, p)
    eps = residuals(x, theta_hat)
    rho_hat = ols_rho(eps)
    dw = dw_statistic(eps)
    mean_sq = float(eps @ eps) / n

    notes: list[str] = []
    tp = theta_hat[-1]
    if abs(tp) <= NEAR_ZERO_THETA_P:
        s2 = np.nan
        notes.append("near_zero_theta_p")
    else:
        s2 = (1.0 - rho_hat * rho_hat / (tp * tp)) * mean_sq  # ** raises OverflowError
        if s2 < 0.0:
            notes.append("negative_sigma2_hat")

    # variance of the first coefficient under the no-correlation hypothesis,
    # for the h-statistic: sigma2_0 * [S^{-1}]_{11} with sigma2_0 = mean_sq
    var_theta1 = mean_sq * float(np.linalg.inv(S)[0, 0])
    if not np.isfinite(var_theta1):  # a subnormal S passes the cond check
        raise SingularDesign(f"variance of theta_hat_1 is {var_theta1}")

    return FitResult(
        p=p,
        n=n,
        theta_hat=theta_hat,
        residuals=eps,
        rho_hat=rho_hat,
        sigma2_hat=s2,
        dw=dw,
        S_n=S,
        var_theta1_hat=var_theta1,
        warnings=tuple(notes),
    )


def sample_autocov_toeplitz(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Toeplitz Gram matrix of raw lag products and its first-p lag vector."""
    x = np.asarray(x, dtype=float)
    s = np.array([float(x[h:] @ x[: x.shape[0] - h]) for h in range(p + 1)])
    return _symmetric_toeplitz(s, p), s[1 : p + 1]


def yule_walker_fit(x: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """Yule-Walker coefficient estimate and the variance of its first entry.

    The variance estimate satisfies an exact algebraic identity:
    1 - n * var_theta1 equals the squared last coefficient.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0] - 1
    S, Pi = sample_autocov_toeplitz(x, p)
    theta_yw = _checked_solve(S, Pi, SingularToeplitz, "sample Toeplitz matrix")
    s0 = S[0, 0]
    sigma2_yw = (s0 - float(Pi @ theta_yw)) / n
    var_theta1 = sigma2_yw * float(np.linalg.inv(S)[0, 0])
    return theta_yw, var_theta1


def read_series(path: str | Path) -> np.ndarray:
    """One numeric value per line, optional single header line."""
    lines = Path(path).read_text().strip().splitlines()
    try:
        float(lines[0].split(",")[0])
        start = 0
    except (IndexError, ValueError):
        start = 1
    if len(lines) <= start:  # no line at all, or a header alone
        raise ValueError(f"empty series file: {path}")
    return np.array([float(ln.split(",")[0]) for ln in lines[start:]])
