"""Least squares machinery for an observed series.

Computes the autoregressive coefficient estimate, residual set, serial
correlation estimate, noise variance estimate and the Durbin-Watson
statistic, plus the Yule-Walker variant whose variance identity makes the
h-statistic collapse to a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
from .limit_theory import _check_integer, _check_reals, _symmetric_toeplitz
from .text import as_path, record_dict

_COND_LIMIT = 1e14

#: |theta_hat_p| at or below which the p-th coefficient estimate counts as zero
NEAR_ZERO_THETA_P = 1e-12

# The functions below work on one series, or on each row of an (R, n+1)
# block of series, a row bit for bit as on its own. Given `errors` (a
# RowErrors of R rows), each error that one series raises becomes the row's
# error there instead.


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a . b along the last axis (into out, if given), each summed as the
    BLAS ddot that a 1-D `a @ b` calls sums: from +0, one fused multiply-add
    per term, by one ddot call per row (einsum sums in another order)."""
    if a.shape[-1] == 1:  # the product, +0 for -0
        return np.add(np.multiply(a[..., 0], b[..., 0], out=out), 0.0, out=out)
    if a.shape[-1] >= 4 and (a.strides[-1], b.strides[-1]) != (a.itemsize, b.itemsize):
        # a ddot of 4 or more terms, either strided, sums in two halves
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    wide = None if out is None else out[..., None, None]
    return np.matmul(a[..., None, :], b[..., :, None], out=wide)[..., 0, 0]


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


def _check_rows(name: str, x: np.ndarray, rows: tuple) -> None:
    """ValueError unless x holds one series for each entry of an array of
    shape rows: () for one series, (R,) for a block of R."""
    if x.ndim < 1 or x.shape[:-1] != rows:
        want = ", ".join([*map(str, rows), "n+1"])
        raise ValueError(f"{name} must have shape ({want}), got {x.shape}")


def lag_matrix(x: np.ndarray, p: int, column: np.ndarray | None = None) -> np.ndarray:
    """Rows are the lag vectors (X_j, X_{j-1}, ..., X_{j-p+1}) for j = 0..n-1,
    with zeros standing in for pre-sample indices, and, if column (n values
    per series) is given, one more entry: column[j]. Only the pre-sample
    triangle is zero-filled; the result is C-contiguous."""
    n = x.shape[-1] - 1
    L = np.empty((*x.shape[:-1], n, p + (column is not None)))
    for i in range(p):
        L[..., :i, i] = 0.0
        L[..., i:, i] = x[..., : max(n - i, 0)]
    if column is not None:
        L[..., p] = column
    return L


def _ols(x: np.ndarray, p: int, errors: RowErrors):
    """fit's theta_hat, the Gram matrix S = L.T @ L it solves and the lag matrix
    L; a series' theta_hat has the bits of np.linalg.solve(S, L.T @ x[1:, None])."""
    _check_integer("p", p, 1)
    _check_rows("x", x, errors.failed.shape)
    big = ~(np.abs(x) < 1e150).all(axis=-1)  # squares and their sums stay finite
    errors.add(big, ValueError, "series must contain only finite values below 1e150")
    if big.any():  # a block's tripped rows, zeroed before any square
        x = np.where(big[..., None], 0.0, x)
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
    return theta_hat[..., 0], S, L


def _residual_energy(eps: np.ndarray, errors: RowErrors) -> np.ndarray:
    """eps . eps; DegenerateResiduals where it is zero."""
    energy = _dot(eps, eps)
    errors.add(energy <= 0.0, DegenerateResiduals, "zero residual energy")
    return energy


@dataclass(frozen=True)
class FitResult:
    """Everything the serial-correlation tests need from one series. From a
    block, each field but p and n holds one entry per row, and warnings is
    empty. The lag-1 residual autocorrelation the portmanteau tests share is
    derived once per result, on first use, and is not a field, so to_dict
    does not hold it."""

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

    @cached_property
    def _r1_squared(self) -> tuple[np.ndarray, np.ndarray]:
        """(r1^2, zero-energy mask): the squared lag-1 autocorrelation
        eps_1..n . eps_0..n-1 / eps . eps of the residuals, and where its
        denominator is zero."""
        eps = self.residuals
        energy = _dot(eps, eps)
        return np.float_power(_dot(eps[..., 1:], eps[..., :-1]) / energy, 2), energy <= 0.0


@np.errstate(all="ignore")
def fit(x: np.ndarray, p: int, errors: RowErrors = SERIES) -> FitResult:
    """Full estimation pipeline for one observed series, or for each row of
    a block. sigma2_hat is NaN when theta_hat_p is numerically zero and may
    be negative on short series (only its limit is guaranteed); a note in
    warnings flags either case. A row of a block with an error holds
    meaningless values. A p that is not an integer >= 1 or an x of the wrong
    shape or not real raises ValueError, and a series shorter than p+2
    SingularDesign, for a whole block; a value not finite or of magnitude
    >= 1e150 raises ValueError, and a singular Gram matrix SingularDesign,
    for its row.

    One pass per quantity: the residuals come from the lag matrix theta_hat
    was solved from, and one eps . eps serves dw and sigma2_hat. Each value,
    series by series, has the bits of numpy's solve of L.T @ L, x[1:] - L @
    theta_hat, the lag-1 ratio eps[1:] @ eps[:-1] / eps[:-1] @ eps[:-1] and
    d @ d / eps @ eps for d = np.diff(eps).
    """
    x = _check_reals("x", x)
    theta_hat, S, L = _ols(x, p, errors)
    n = x.shape[-1] - 1
    # eps is allocated while L and L @ theta_hat live: the heap they free then
    # lies below it in one piece, where Breusch-Godfrey's one column wider
    # matrix fits (freeing L first raised long_path's peak RSS by 23 MB)
    fitted = L @ theta_hat[..., None]
    eps = np.empty_like(x)
    eps[..., 0] = x[..., 0]
    np.subtract(x[..., 1:], fitted[..., 0], out=eps[..., 1:])
    del fitted, L
    lagged = _dot(eps[..., :-1], eps[..., :-1])
    errors.add(lagged <= 0.0, DegenerateResiduals, "zero energy in lagged residuals")
    rho_hat = _dot(eps[..., 1:], eps[..., :-1]) / lagged
    energy = _residual_energy(eps, errors)
    d = np.diff(eps)
    dw = _dot(d, d) / energy
    mean_sq = energy / n
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


def yule_walker_fit(x: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """Yule-Walker coefficient estimate and the variance of its first entry.

    The variance estimate satisfies an exact algebraic identity:
    1 - n * var_theta1 equals the squared last coefficient. x must be one
    real series, or ValueError, of length at least p+2, or SingularDesign.
    """
    x = _check_reals("x", x)
    p = _check_integer("p", p, 1)
    _check_rows("x", x, ())
    if x.shape[0] < p + 2:
        raise SingularDesign(f"series length {x.shape[0]} < p+2 = {p + 2}")
    n = x.shape[0] - 1
    # the raw lag sums s_0..s_p, their Toeplitz matrix S and s_1..s_p
    s = np.array([float(x[h:] @ x[: n + 1 - h]) for h in range(p + 1)])
    S = _symmetric_toeplitz(s, p)
    theta_yw = _checked_solve(S, s[1 : p + 1, None], SingularToeplitz,
                              "sample Toeplitz matrix")[:, 0]
    sigma2_yw = (s[0] - float(s[1 : p + 1] @ theta_yw)) / n
    var_theta1 = sigma2_yw * float(np.linalg.inv(S)[0, 0])
    return theta_yw, var_theta1


def read_series(path: str | Path) -> np.ndarray:
    """One numeric value per line, optional single header line."""
    lines = as_path(path).read_text().strip().splitlines()
    try:
        float(lines[0].split(",")[0])
        start = 0
    except (IndexError, ValueError):
        start = 1
    if len(lines) <= start:  # no line at all, or a header alone
        raise ValueError(f"empty series file: {path}")
    return np.array([float(ln.split(",")[0]) for ln in lines[start:]])
