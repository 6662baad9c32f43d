"""Closed-form limiting objects for a stable AR(p) process driven by AR(1) noise.

Everything here is a deterministic function of the true parameters
(p, theta, rho): the limiting value of the least squares estimator of theta,
the limiting serial correlation and Durbin-Watson values, and the asymptotic
covariance structure of the whole estimation machinery. An independent
fixed-point (discrete Lyapunov) oracle for the normalized autocovariances is
provided so that the linear-system route can be cross-validated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    BadVariance,
    NoConvergence,
    NotPositiveDefinite,
    SingularB,
    UnstableRho,
    UnstableTheta,
    ZeroTheta,
)
from .text import record_dict

#: condition number above which linear solves emit a warning
ILL_CONDITION_THRESHOLD = 1e12

#: |theta*_p| below which the joint covariance matrix is flagged singular
THETA_STAR_P_SINGULARITY_TOL = 1e-8

# LAPACK through numpy.linalg's gufuncs, without its per-call wrappers, which
# cost more than LAPACK does on matrices of order p + 2. The callers make the
# wrappers' shape and finiteness checks themselves. A LAPACK failure fills the
# result with NaN, and every threshold check below is written so NaN fails it.
_svd = getattr(_umath_linalg, "svd", None) or _umath_linalg.svd_n  # svd_n on numpy 1.x
_solve, _inv, _eigvalsh = _umath_linalg.solve1, _umath_linalg.inv, _umath_linalg.eigvalsh_lo

#: condition number past which a system is numerically singular
_SINGULAR_COND = 1.0 / np.finfo(float).eps

#: most fixed-point iterations of lyapunov_lambda_oracle, past which it
#: raises NoConvergence
_ORACLE_ITERATIONS = 10**6


def _cond(a: np.ndarray) -> float:
    """2-norm condition number s_max / s_min, as np.linalg.cond gives it;
    inf for a singular matrix, NaN if the SVD failed."""
    s = _svd(a)
    return s[0] / s[-1] if s[-1] != 0.0 else np.inf


@dataclass(frozen=True)
class ModelParams:
    """True parameters of the AR(p) model with AR(1)-correlated noise.

    The stability region is open: ||theta||_1 < 1 and |rho| < 1 strictly.
    Construction enforces it (check_stability), so every function taking a
    ModelParams can rely on it. rho and sigma2 must be real numbers and are
    stored as float; theta must hold real numbers, or ValueError.
    """

    p: int
    theta: np.ndarray
    rho: float
    sigma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", _check_integer("p", self.p))
        theta = np.array(_check_reals("theta", self.theta), ndmin=1)  # its own, read-only
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        for name in ("rho", "sigma2"):
            object.__setattr__(self, name, _check_reals(name, getattr(self, name), scalar=True))
        if theta.ndim != 1 or theta.shape[0] != self.p or self.p < 1:
            raise ValueError(f"theta must be a vector of length p={self.p}")
        check_stability(self)


def _check_integer(name: str, value, low: int | None = None) -> int:
    """value as an int; a non-integer value (a bool included), or one below
    low if given, raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_params(params, name: str = "params") -> None:
    """ValueError unless params is a ModelParams."""
    if not isinstance(params, ModelParams):
        raise ValueError(f"{name} must be a ModelParams, got {params!r}")


def _check_reals(name: str, value, scalar: bool = False):
    """value as a float array, or as a float if scalar: what numpy reads as
    ints or floats (dtype kind i, u or f), and if scalar 0-D and not an
    ndarray. Anything else raises ValueError: a bool, a string, None, a
    complex, an object, a ragged list or an int past uint64."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list: refused as None is
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or scalar and (a.ndim or isinstance(value, np.ndarray)):
        what = "be a real number" if scalar else "hold real numbers"
        raise ValueError(f"{name} must {what}, got {value!r}")
    return float(a) if scalar else a.astype(float, copy=False)


def _check_array(name: str, a, ndim: int) -> np.ndarray:
    """a as a float array; anything but a numpy array of ndim dimensions,
    real and finite, raises ValueError."""
    if not (isinstance(a, np.ndarray) and a.ndim == ndim and a.dtype.kind in "iuf"):
        got = f"shape {a.shape} {a.dtype}" if isinstance(a, np.ndarray) else type(a).__name__
        raise ValueError(f"{name} must be a {ndim}-D real array, got {got}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must contain only finite values")
    return a


def check_stability(params: ModelParams) -> None:
    """Validate the open stability region and basic parameter sanity."""
    _check_params(params)
    if not np.all(np.isfinite([*params.theta, params.rho, params.sigma2])):
        raise ValueError("parameters must be finite")
    norm1 = np.linalg.norm(params.theta, 1)
    if norm1 >= 1.0:
        raise UnstableTheta(f"||theta||_1 = {norm1:.6g} >= 1")
    if abs(params.rho) >= 1.0:
        raise UnstableRho(f"|rho| = {abs(params.rho):.6g} >= 1")
    if np.all(params.theta == 0.0):
        raise ZeroTheta("theta must be a nonzero vector")
    if not (params.sigma2 > 0.0):
        raise BadVariance(f"sigma2 = {params.sigma2:.6g} must be > 0")


def beta_vector(params: ModelParams) -> np.ndarray:
    """Combined coefficient vector: (theta_1 + rho, theta_2 - theta_1 rho, ...)."""
    _check_params(params)
    theta, rho = params.theta.tolist(), params.rho
    return np.array([theta[0] + rho, *(t - rho * s for t, s in zip(theta[1:], theta))])


def _system_matrix(beta: np.ndarray, tail: float, p: int) -> np.ndarray:
    """Assemble the (p+2)-order linear system matrix from the autocovariance
    recursion lam_d - sum_i beta_i lam_|d-i| + tail * lam_|d-p-1| = delta_d."""
    m = p + 2
    beta, tail = beta.tolist(), float(tail)  # Python floats: same IEEE ops, less overhead
    B = [[0.0] * m for _ in range(m)]
    for d, row in enumerate(B):
        row[d] = 1.0
        for i in range(1, p + 1):
            row[abs(d - i)] -= beta[i - 1]
        row[abs(d - p - 1)] += tail
    return np.array(B)


def build_B(params: ModelParams) -> np.ndarray:
    """Matrix of the (p+2)-order linear system whose solution holds the
    normalized autocovariances of the process at lags 0..p+1.

    Its conditioning is checked where the system is solved (solve_lambda).
    """
    return _system_matrix(beta_vector(params), params.theta[-1] * params.rho, params.p)


def solve_lambda(B: np.ndarray) -> np.ndarray:
    """Solve B lam = e for the normalized autocovariance vector lam_0..lam_{p+1}.

    B must be a finite, non-empty, square 2-D numpy array of reals; anything
    else raises ValueError.
    """
    B = _check_array("B", B, 2)
    if B.shape[0] != B.shape[1] or B.size == 0:
        raise ValueError(f"B must be a non-empty square matrix, got shape {B.shape}")
    return _solve_lambda(B)


def _solve_lambda(B: np.ndarray) -> np.ndarray:
    """solve_lambda for a B already known to be a finite square float array."""
    cond = _cond(B)
    if not cond <= _SINGULAR_COND:
        raise SingularB(f"system matrix numerically singular (cond ~ {cond:.3g})")
    if cond > ILL_CONDITION_THRESHOLD:
        warnings.warn(
            f"autocovariance system ill-conditioned (cond ~ {cond:.3g})",
            RuntimeWarning,
        )
    e = _order_arrays(B.shape[0])[2]
    lam = _solve(B, e)
    resid = np.abs(B @ lam - e).max()  # the inf-norm
    if not resid <= 1e-10 * max(np.abs(lam).max(), 1.0):
        raise SingularB(f"solve residual too large: {resid:.3g}")
    return lam


@lru_cache(maxsize=32)
def _order_arrays(m: int) -> tuple[np.ndarray, ...]:
    """Read-only eye(m) and its views fliplr(eye(m)) and e_1, for m >= 1."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye, eye[:, ::-1], eye[0]


def _symmetric_toeplitz(c: np.ndarray, m: int) -> np.ndarray:
    """The m x m matrix whose (i, j) entry is c[|i - j|]."""
    return c[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]


def toeplitz_delta(lam: np.ndarray, m: int) -> np.ndarray:
    """Symmetric Toeplitz matrix of order m built from lam_0..lam_{m-1}.

    Positive definiteness is verified; failure signals an inconsistent
    autocovariance vector upstream. lam must be a finite 1-D numpy array of
    reals and m an integer >= 1; anything else raises ValueError.
    """
    m = _check_integer("m", m, 1)
    lam = _check_array("lam", lam, 1)
    if m > lam.shape[0]:
        raise ValueError(f"need at least {m} autocovariance values, got {lam.shape[0]}")
    return _toeplitz_delta(lam, m)


def _toeplitz_delta(lam: np.ndarray, m: int) -> np.ndarray:
    """toeplitz_delta for a finite float lam of length >= m >= 1."""
    delta = _symmetric_toeplitz(lam, m)
    eigmin = _eigvalsh(delta)[0]
    if not eigmin > 0.0:
        raise NotPositiveDefinite(
            f"Toeplitz autocovariance matrix has min eigenvalue {eigmin:.3g}"
        )
    return delta


def companion_matrix(params: ModelParams) -> np.ndarray:
    """Companion form of the combined (p+1)-order recursion on the observations."""
    beta = beta_vector(params)
    C = np.eye(params.p + 1, k=-1)
    C[0, :-1] = beta
    C[0, -1] = -(params.theta[-1] * params.rho)
    return C


def lyapunov_lambda_oracle(params: ModelParams, max_lag: int) -> np.ndarray:
    """Normalized autocovariances via the stationary covariance of the
    companion-form recursion, by fixed-point iteration.

    Independent of the linear-system route: iterates
    Sigma <- C Sigma C' + e e' to stationarity and reads lag 0..p off the
    first row, extending to higher lags through the scalar recursion.
    """
    _check_params(params)
    max_lag = _check_integer("max_lag", max_lag)
    if max_lag < params.p + 1:
        raise ValueError(f"max_lag must be >= p+1 = {params.p + 1}")
    C = companion_matrix(params)
    m = C.shape[0]
    Q = np.zeros((m, m))
    Q[0, 0] = 1.0  # unit-variance innovations: result is sigma2-free
    Sigma = Q.copy()
    for _ in range(_ORACLE_ITERATIONS):
        Sigma, prev = C @ Sigma @ C.T + Q, Sigma
        if np.max(np.abs(Sigma - prev)) < 1e-14 * max(1.0, np.max(np.abs(Sigma))):
            break
    else:
        raise NoConvergence("stationary covariance iteration hit the cap")
    lam = np.empty(max_lag + 1)
    lam[: m] = Sigma[0, :]
    beta, tail = C[0, :-1], -C[0, -1]
    for d in range(m, max_lag + 1):
        lam[d] = beta @ lam[d - 1 : d - 1 - params.p : -1] - tail * lam[d - params.p - 1]
    return lam


@dataclass(frozen=True)
class LimitSummary:
    """Every closed-form limiting object, mutually consistent by construction."""

    params: ModelParams
    alpha: float
    beta: np.ndarray
    B: np.ndarray
    Lambda: np.ndarray
    Delta_p: np.ndarray
    Delta_p1: np.ndarray
    theta_star: np.ndarray
    rho_star: float
    d_star: float
    Sigma_theta: np.ndarray
    P: np.ndarray
    Gamma: np.ndarray
    sigma2_rho: float
    sigma2_D: float
    gamma_singular: bool

    @property
    def cond_B(self) -> float:
        """Condition number of the autocovariance system matrix."""
        return _cond(self.B)

    @property
    def C_A(self) -> np.ndarray:
        """Companion matrix of the combined recursion (companion_matrix)."""
        return companion_matrix(self.params)

    def to_dict(self) -> dict:
        """JSON-ready representation: p, theta and rho, then every field but
        the intermediate matrices."""
        return {**record_dict(self.params, drop=("sigma2",)),
                **record_dict(self, drop=("params", "B", "Delta_p", "Delta_p1", "P"))}


def limit_summary(params: ModelParams) -> LimitSummary:
    """Assemble all limiting objects from (p, theta, rho).

    The last-coordinate asymptotic variance of the serial correlation
    estimator is computed twice (as the corner of the joint covariance and
    through its explicit expansion) and the two must agree. The cores skip the
    input checks: B is finite and square by construction, lam finite once its
    solve residual passes. Scalars are Python floats, same bits as float64.
    A params that is not a ModelParams raises ValueError.
    """
    beta = beta_vector(params)  # checks params first
    p = params.p
    tpr = float(params.theta[-1]) * params.rho
    # the normalization 1 / (1 - (theta_p rho)^2), finite on the stability region
    alpha = 1.0 / ((1.0 - tpr) * (1.0 + tpr))

    B = _system_matrix(beta, tpr, p)
    lam = _solve_lambda(B)
    Delta_p1 = _toeplitz_delta(lam, p + 1)
    # a leading principal block of a positive definite matrix is positive
    # definite (Cauchy interlacing), so Delta_p needs no check of its own
    Delta_p = Delta_p1[:p, :p]

    eye, J, e_p = _order_arrays(p)
    K = eye - tpr * J
    theta_star = alpha * (K @ beta)
    theta_star_p = float(theta_star[-1])
    rho_star = tpr * theta_star_p
    d_star = 2.0 * (1.0 - rho_star)

    Delta_p_inv = _inv(Delta_p)
    K_Dinv = K @ Delta_p_inv
    Sigma_theta = alpha**2 * (K_Dinv @ K)

    P_B = alpha * K_Dinv
    P_L = J @ K @ (alpha * tpr * (Delta_p_inv @ e_p) + theta_star_p * beta)
    ratio = theta_star_p / alpha
    P = np.zeros((p + 1, p + 1))
    P[:p, :p] = P_B
    P[p, :p] = P_L
    P[p, p] = -ratio

    Gamma = P @ Delta_p1 @ P.T
    sigma2_rho = float(Gamma[p, p])

    lam_p1 = lam[1 : p + 1]
    sigma2_rho_explicit = (
        P_L @ Delta_p @ P_L
        - 2.0 * ratio * (lam_p1 @ (J @ P_L))
        + ratio**2 * lam[0]
    )
    rel = abs(sigma2_rho - sigma2_rho_explicit) / max(abs(sigma2_rho), 1e-30)
    if not rel <= 1e-9:
        raise NotPositiveDefinite(
            f"two serial-correlation variance routes disagree (rel {rel:.3g})"
        )

    return LimitSummary(
        params=params,
        alpha=alpha,
        beta=beta,
        B=B,
        Lambda=lam,
        Delta_p=Delta_p,
        Delta_p1=Delta_p1,
        theta_star=theta_star,
        rho_star=rho_star,
        d_star=d_star,
        Sigma_theta=Sigma_theta,
        P=P,
        Gamma=Gamma,
        sigma2_rho=sigma2_rho,
        sigma2_D=4.0 * sigma2_rho,
        gamma_singular=abs(theta_star_p) < THETA_STAR_P_SINGULARITY_TOL,
    )
