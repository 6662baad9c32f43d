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
    SERIES,
    ArdwError,
    DegenerateResiduals,
    RowErrors,
    SingularDesign,
    SingularToeplitz,
)
from .limit_theory import _check_integer, _symmetric_toeplitz
from .text import record_dict

_COND_LIMIT = 1e14

#: |theta_hat_p| at or below which the p-th coefficient estimate counts as zero
NEAR_ZERO_THETA_P = 1e-12

# The functions below work on one series, or on each row of an (R, n+1)
# block of series, a row bit for bit as on its own. Given `errors` (a
# RowErrors of R rows), each error that one series raises becomes the row's
# error there instead.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b along the last axis, through the BLAS dot product that a 1-D
    `a @ b` calls (einsum sums in another order)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _checked_solve(G, b, error: type[ArdwError], what: str, errors: RowErrors = SERIES):
    """Solve G z = b (b with a trailing axis of length 1) where cond(G) is
    finite and <= _COND_LIMIT; elsewhere `error`, and z is NaN."""
    G = np.where(np.isfinite(G).all(axis=(-2, -1))[..., None, None], G, 0.0)
    # cond(G) <= ||G||_F**m / |det G| for m x m G: where that bound is at most
    # _COND_LIMIT / 100 the gate passes without an SVD. G is scaled to a
    # largest entry of 1 first (NaN for a zero matrix), so the bound cannot
    # overflow and an underflow only sends a matrix to the SVD.
    with np.errstate(invalid="ignore"):
        unit = G / np.abs(G).max(axis=(-2, -1), keepdims=True)
        cleared = (np.linalg.norm(unit, axis=(-2, -1)) ** G.shape[-1]
                   <= _COND_LIMIT / 100 * np.abs(np.linalg.det(unit)))
    cond = np.zeros(cleared.shape)
    if not cleared.all():
        cond[~cleared] = np.linalg.cond(G[~cleared])  # inf for a zero matrix
    ok = cond <= _COND_LIMIT
    errors.add(~ok, error, lambda i: f"{what} singular (cond ~ {cond[i]:.3g})")
    # one singular matrix would make the whole stacked solve raise
    ok = ok[..., None, None]
    return np.where(ok, np.linalg.solve(np.where(ok, G, np.eye(G.shape[-1])), b), np.nan)


def lag_matrix(x: np.ndarray, p: int) -> np.ndarray:
    """Rows are the lag vectors (X_j, X_{j-1}, ..., X_{j-p+1}) for j = 0..n-1,
    with zeros standing in for pre-sample indices."""
    n = x.shape[-1] - 1
    L = np.zeros((*x.shape[:-1], n, p))
    for i in range(p):
        L[..., i:, i] = x[..., : n - i]
    return L


def ols_theta(x: np.ndarray, p: int,
              errors: RowErrors = SERIES) -> tuple[np.ndarray, np.ndarray]:
    """Least squares estimate of the autoregressive coefficients.

    Returns (theta_hat, S) where S is the accumulated lag-vector Gram matrix.
    A singular S raises SingularDesign. A p that is not an integer >= 1, or a
    series value that is not finite or has magnitude >= 1e150, raises
    ValueError, and a series shorter than p+2 SingularDesign; on a block these
    raise for the whole block.
    """
    x = np.asarray(x, dtype=float)
    if _check_integer("p", p) < 1:
        raise ValueError(f"model order p must be >= 1, got {p}")
    if not np.all(np.abs(x) < 1e150):  # squares and their sums stay finite
        raise ValueError("series must contain only finite values below 1e150")
    if x.shape[-1] < p + 2:
        raise SingularDesign(f"series length {x.shape[-1]} < p+2 = {p + 2}")
    L = lag_matrix(x, p)
    Lt = L.swapaxes(-1, -2)
    S = Lt @ L
    rhs = Lt @ x[..., 1:, None]
    theta_hat = _checked_solve(S, rhs, SingularDesign, "design Gram matrix", errors)
    resid = np.abs(S @ theta_hat - rhs).max(axis=(-2, -1))
    bound = 1e-10 * np.maximum(np.abs(rhs).max(axis=(-2, -1)), 1.0)
    errors.add(resid > bound, SingularDesign,
               lambda i: f"normal equations residual too large: {resid[i]:.3g}")
    return theta_hat[..., 0], S


def residuals(x: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Residual series with the convention that the first residual is X_0."""
    x = np.asarray(x, dtype=float)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    eps = np.empty_like(x)
    eps[..., 0] = x[..., 0]
    L = lag_matrix(x, theta_hat.shape[-1])
    np.subtract(x[..., 1:], (L @ theta_hat[..., None])[..., 0], out=eps[..., 1:])
    return eps


def ols_rho(eps: np.ndarray, errors: RowErrors = SERIES):
    """Lag-1 least squares coefficient of the residual series."""
    eps = np.asarray(eps, dtype=float)
    den = _dot(eps[..., :-1], eps[..., :-1])
    errors.add(den <= 0.0, DegenerateResiduals, "zero energy in lagged residuals")
    return _dot(eps[..., 1:], eps[..., :-1]) / den


def _residual_energy(eps: np.ndarray, errors: RowErrors) -> np.ndarray:
    """eps . eps; DegenerateResiduals where it is zero."""
    energy = _dot(eps, eps)
    errors.add(energy <= 0.0, DegenerateResiduals, "zero residual energy")
    return energy


def dw_statistic(eps: np.ndarray, errors: RowErrors = SERIES):
    """Durbin-Watson ratio; always in [0, 4]."""
    eps = np.asarray(eps, dtype=float)
    d = np.diff(eps)
    return _dot(d, d) / _residual_energy(eps, errors)


@dataclass(frozen=True)
class FitResult:
    """Everything the serial-correlation tests need from one series. From a
    block, each field but p and n holds one entry per row, and warnings is
    empty."""

    p: int
    n: int
    theta_hat: np.ndarray
    residuals: np.ndarray
    rho_hat: float
    sigma2_hat: float
    dw: float
    var_theta1_hat: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return record_dict(self, drop=("residuals",))


@np.errstate(all="ignore")
def fit(x: np.ndarray, p: int, errors: RowErrors = SERIES) -> FitResult:
    """Full estimation pipeline for one observed series. sigma2_hat is NaN
    when theta_hat_p is numerically zero and may be negative on short series
    (only its limit is guaranteed); a note in warnings flags either case.
    A row of a block with an error holds meaningless values."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] - 1
    theta_hat, S = ols_theta(x, p, errors)
    eps = residuals(x, theta_hat)
    rho_hat = ols_rho(eps, errors)
    dw = dw_statistic(eps, errors)
    mean_sq = _dot(eps, eps) / n
    tp = theta_hat[..., -1]
    near_zero = np.abs(tp) <= NEAR_ZERO_THETA_P
    s2 = np.where(near_zero, np.nan, (1.0 - rho_hat * rho_hat / (tp * tp)) * mean_sq)[()]

    # variance of the first coefficient under the no-correlation hypothesis,
    # for the h-statistic: sigma2_0 * [S^{-1}]_{11} with sigma2_0 = mean_sq
    ok = ~errors.failed[..., None, None]
    var_theta1 = mean_sq * np.linalg.inv(np.where(ok, S, np.eye(p)))[..., 0, 0]
    # a subnormal S passes the cond check
    errors.add(~np.isfinite(var_theta1), SingularDesign,
               lambda i: f"variance of theta_hat_1 is {var_theta1[i]}")
    notes = () if x.ndim > 1 else ("near_zero_theta_p",) if near_zero else (
        ("negative_sigma2_hat",) if s2 < 0.0 else ())
    return FitResult(p=int(p), n=n, theta_hat=theta_hat, residuals=eps, rho_hat=rho_hat,
                     sigma2_hat=s2, dw=dw, var_theta1_hat=var_theta1, warnings=notes)


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
    theta_yw = _checked_solve(S, Pi[:, None], SingularToeplitz,
                              "sample Toeplitz matrix")[:, 0]
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
