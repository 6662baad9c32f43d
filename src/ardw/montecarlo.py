"""Seeded Monte-Carlo studies: size/power tables, CLT covariance diagnostics
and almost-sure rate diagnostics.

Every replication derives its own generator from
(master_seed, params_id, n, rep_index), so tables are byte-identical for any
worker count or scheduling order.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np

from .errors import ArdwError, RowErrors
from .estimators import _dot, fit
from .limit_theory import LimitSummary, ModelParams, _check_integer, _check_params, limit_summary
from .serial_tests import TEST_NAMES, _check_level, _check_names, outcome_masks
from .simulate import NoiseSpec, _check_length, _linear_filter, _paths, simulate
from .text import as_path, csv_text

#: documented default parameter sets spanning orders 1..3 and
#: positive/negative serial correlation
DEFAULT_SUITE: tuple[ModelParams, ...] = (
    ModelParams(p=1, theta=np.array([0.5]), rho=0.0),
    ModelParams(p=1, theta=np.array([0.5]), rho=0.5),
    ModelParams(p=2, theta=np.array([0.4, -0.3]), rho=0.0),
    ModelParams(p=2, theta=np.array([0.4, -0.3]), rho=-0.5),
    ModelParams(p=3, theta=np.array([0.3, -0.2, 0.25]), rho=0.2),
)


@dataclass(frozen=True)
class StudyConfig:
    """Grid and bookkeeping for one size/power study."""

    params_list: tuple[ModelParams, ...]
    n_list: tuple[int, ...]
    reps: int = 1000
    level: float = 0.05
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    master_seed: int = 0
    tests: tuple[str, ...] = TEST_NAMES
    burn_in: int = 0

    def __post_init__(self):
        for name in ("params_list", "n_list", "tests"):
            value = getattr(self, name)
            if isinstance(value, str) or not np.iterable(value):
                raise ValueError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for name, low, high in (("reps", 100, sys.maxsize), ("master_seed", 0, None),
                                ("burn_in", 0, None)):  # reps is a range's length
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low, high))
        object.__setattr__(self, "n_list", tuple(_check_integer("n", n) for n in self.n_list))
        object.__setattr__(self, "level", _check_level(self.level))
        _check_names(self.tests)
        for name, value in (("n_list", self.n_list), ("tests", self.tests)):
            if len(set(value)) < len(value):
                raise ValueError(f"{name} must not repeat a value, got {value!r}")
        if not isinstance(self.noise, NoiseSpec):
            raise ValueError(f"noise must be a NoiseSpec, got {self.noise!r}")
        for prm in self.params_list:
            _check_params(prm, "each params_list entry")
            for n in self.n_list:
                _check_length(prm, n)

    @classmethod
    def from_json(cls, path: str | Path) -> "StudyConfig":
        """Read a JSON object keyed by field name. A missing or unknown key, or
        a value of the wrong kind, raises ValueError."""
        raw = json.loads(as_path(path).read_text())
        try:
            return cls(**{
                **raw,
                "params_list": [ModelParams(**e) for e in raw["params_list"]],
                "noise": NoiseSpec(**raw.get("noise", {})),
            })
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed study config: {exc!r}") from exc


_COLUMNS = ("params_id", "n", "test_name", "rejection_rate", "inapplicable_rate",
            "mc_stderr", "reps")


@dataclass(frozen=True)
class PowerTable:
    """Rejection frequencies per (parameter set, sample size, test)."""

    rows: tuple[dict, ...]

    def to_csv(self) -> str:
        return csv_text(_COLUMNS, ([r[c] for c in _COLUMNS] for r in self.rows))

    def rate(self, params_id: int, n: int, test_name: str) -> float:
        for r in self.rows:
            if (r["params_id"], r["n"], r["test_name"]) == (params_id, n, test_name):
                return r["rejection_rate"]
        raise KeyError((params_id, n, test_name))


#: most elements (rows x n) of a block of replications. The largest array
#: of a block, the rows x n x (p+1) Breusch-Godfrey tensor, stays at a few
#: MB; a path longer than this is a block by itself. The rate diagnostic
#: sums and solves its stages in blocks of BLOCK_ELEMENTS // (2p (p+1)).
BLOCK_ELEMENTS = 2**16


def _replicate(params, n, noise, prefix, reps, burn_in=0, level=0.05, names=()):
    """Simulate, fit and test the path of seed (*prefix, rep) for each rep in
    the range reps, in blocks of at most BLOCK_ELEMENTS // n rows; yields per
    block the fits, their errors and, per test name, the masks (reject,
    inapplicable) of `outcome_masks`. Arguments are checked; prefix holds ints."""
    rows = max(1, BLOCK_ELEMENTS // n)
    for start in range(0, len(reps), rows):
        seeds = [(*prefix, rep) for rep in reps[start:start + rows]]
        x = _paths(params, n, noise, seeds, burn_in)[0]
        errors = RowErrors(len(x))
        fits = fit(x, params.p, errors)
        yield fits, errors, outcome_masks(x, fits, errors.failed, level, names)


def _run_chunk(args) -> Counter:
    """Counts keyed (params_id, n, test name, "reject" | "inapplicable") over
    a range of replications of one (params, n) cell."""
    config, params_id, n, reps = args
    counts = Counter()
    for _, _, tests in _replicate(config.params_list[params_id], n, config.noise,
                                  (config.master_seed, params_id, n), reps,
                                  config.burn_in, config.level, config.tests):
        for name, (reject, inapplicable) in tests.items():
            counts[params_id, n, name, "reject"] += int(reject.sum())
            counts[params_id, n, name, "inapplicable"] += int(inapplicable.sum())
    return counts


def size_power_study(config: StudyConfig, workers: int = 1) -> PowerTable:
    """Tabulate empirical rejection frequencies over the study grid.

    Deterministic for a fixed master_seed whatever the worker count:
    replication seeds depend only on their grid coordinates, and the counts
    are summed. Each (params, n) cell is one task per worker, task w taking
    the replications range(w, reps, workers). workers > 1 runs the tasks on
    one process pool for the whole study, of at most os.cpu_count()
    processes. config must be a StudyConfig and workers an integer >= 1, or
    ValueError.
    """
    if not isinstance(config, StudyConfig):
        raise ValueError(f"config must be a StudyConfig, got {config!r}")
    workers = min(_check_integer("workers", workers, 1), os.cpu_count() or 1)
    grid = list(product(range(len(config.params_list)), config.n_list))
    tasks = [(config, params_id, n, range(w, config.reps, workers))
             for params_id, n in grid for w in range(workers)]
    if workers > 1:
        _linear_filter()  # loaded once here, not in each forked worker
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing, for pools only
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        counts = sum((pool.map if pool else map)(_run_chunk, tasks), Counter())

    rows = []
    for params_id, n in grid:
        for name in config.tests:
            r = counts[params_id, n, name, "reject"] / config.reps
            rows.append(dict(zip(_COLUMNS, (
                params_id, n, name, r, counts[params_id, n, name, "inapplicable"] / config.reps,
                float(np.sqrt(r * (1.0 - r) / config.reps)), config.reps,
            ))))
    return PowerTable(rows=tuple(rows))


def clt_diagnostic(
    params: ModelParams,
    n: int,
    reps: int,
    seed: int = 0,
    noise: NoiseSpec | None = None,
) -> dict:
    """Empirical covariance of the sqrt(n)-scaled estimation errors against
    the asymptotic covariance matrix.

    Reports the relative Frobenius error of the joint covariance and the
    relative error of the scaled Durbin-Watson variance. When the asymptotic
    joint covariance is singular the joint check is skipped with a flag.
    Fewer than 2 successful fits raise ArdwError.
    """
    _check_params(params)
    n, reps = _check_integer("n", n), _check_integer("reps", reps, 2, sys.maxsize)
    limits: LimitSummary = limit_summary(params)
    _check_length(params, n)
    seed = _check_integer("seed", seed, 0)
    kept, first = [], None
    for fits, errors, _ in _replicate(params, n, noise, (seed,), range(reps)):
        ok = ~errors.failed
        kept.append((fits.theta_hat[ok], fits.rho_hat[ok], fits.dw[ok]))
        if first is None and not ok.all():
            first = errors.error(int(np.argmin(ok)))
    theta, rho, dw = (np.concatenate(a) for a in zip(*kept))
    if len(dw) < 2:
        raise ArdwError(f"kept {len(dw)} of {reps} fits, need 2; first failure: "
                        f"{type(first).__name__}: {first}")
    dw_errs = np.sqrt(n) * (dw - limits.d_star)

    report = {
        "n": n,
        "reps": reps,
        "kept": len(dw),
        "gamma_singular": limits.gamma_singular,
        "sigma2_D": limits.sigma2_D,
        "empirical_var_dw": float(np.var(dw_errs)),
    }
    report["rel_error_var_dw"] = abs(
        report["empirical_var_dw"] - limits.sigma2_D
    ) / abs(limits.sigma2_D) if limits.sigma2_D > 0 else float("nan")
    if limits.gamma_singular:
        report["rel_frobenius_joint"] = float("nan")
    else:
        errs = np.sqrt(n) * np.column_stack([theta - limits.theta_star, rho - limits.rho_star])
        emp = np.cov(errs, rowvar=False)
        report["empirical_gamma"] = emp.tolist()
        report["gamma"] = limits.Gamma.tolist()
        report["rel_frobenius_joint"] = float(
            np.linalg.norm(emp - limits.Gamma) / np.linalg.norm(limits.Gamma)
        )
    return report


def _pairs(p: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i <= j, of a p x p upper triangle in row order: the
    layout of every triangle of sums, one entry per pair."""
    return list(combinations_with_replacement(range(p), 2))


def _product_sums(cols, pairs, last: np.ndarray | None) -> np.ndarray:
    """Column k of the result is the running sum over the stages of
    cols[i] * cols[j] for the k-th pair (i, j): one multiplication along each
    pair's stages, then np.cumsum in place, continued from the last row of
    the previous block's sums. That makes the same additions in the same
    order as one cumsum over the whole path. The first block (last None) adds
    nothing, so a -0.0 stays."""
    terms = np.empty((len(pairs), len(cols[0])))
    for row, (i, j) in zip(terms, pairs):
        np.multiply(cols[i], cols[j], out=row)
    if last is not None:
        terms[:, 0] += last[-1]
    return np.cumsum(terms.T, axis=0, out=terms.T)


def _mirror(upper, out: np.ndarray) -> np.ndarray:
    """out[i, j] = out[j, i] = upper[k] for the k-th pair (i, j) of _pairs:
    the symmetric matrix (over the first two axes of out) of a triangle."""
    for k, (i, j) in enumerate(_pairs(len(out))):
        out[i, j] = out[j, i] = upper[k]
    return out


@np.errstate(all="ignore")  # a declined block warns of nothing
def _ldl_solve(gram, num, out) -> bool:
    """Solve A x = num into out.T (A mirrored from its upper triangle gram)
    by A = L D L^T without square roots, each step over all the stages: step
    k divides row k of the reduced A by its pivot d_k into column k of L,
    and takes L[i, k] times row k from each later row i, the numerators
    included (so they become y of L y = num). Then z = y / d and L^T x = z,
    column by column from the last. At p = 1 it is the one division LAPACK
    makes. False where a pivot is below the smallest normal double (zero and
    negative included) or an entry is not finite; out is then unspecified."""
    p, m = out.shape
    w = np.empty((p, p + 1, m))  # w[i, j]: A[i, j] reduced, i <= j; L[i, j], i > j
    w[:, p] = num.T
    for (i, j), column in zip(_pairs(p), gram.T):
        w[i, j] = column
    for k in range(p - 1):
        np.divide(w[k, k + 1:p], w[k, k], out=w[k + 1:, k])
        for i in range(k + 1, p):
            w[i, i:] -= w[i, k] * w[k, i:]
    d = np.diagonal(w, axis1=0, axis2=1).T  # the pivots, a view
    np.divide(w[:, p], d, out=out)
    for k in range(p - 1, 0, -1):
        out[:k] -= w[k, :k] * out[k]
    return bool(d.min() >= np.finfo(float).tiny and d.max() <= np.finfo(float).max
                and np.isfinite(out).all())


def _theta_hat_blocks(x: np.ndarray, p: int, start: int):
    """Estimates at every stage k >= start along one path, in blocks of at
    most BLOCK_ELEMENTS // (2p (p+1)) stages: yields (k0, theta) with row i
    of theta the estimate at stage k0 + i. The Gram and numerator sums run
    over j <= k-1 and are carried from block to block, so memory is O(n),
    not O(n p^2). The Gram sums cover the upper triangle, one column per
    entry. Lag column i of row j, X_{j-i}, is a slice of x, or of a copy of
    x[:b] after p zeros for a block that starts before X_p. _ldl_solve
    solves each block into one row per component, and theta is that array
    transposed; the blocks it declines go to np.linalg.solve, which raises
    if singular."""
    n = len(x) - 1
    rows = max(1, BLOCK_ELEMENTS // (2 * p * (p + 1)))
    pairs, numerators = _pairs(p), [(i, p) for i in range(p)]  # lag i times X_{j+1}
    gram = num = None
    for a in range(0, n, rows):
        b = min(a + rows, n)
        src, shift = (x, 0) if a >= p else (np.concatenate([np.zeros(p), x[:b]]), p)
        cols = [src[a - i + shift:b - i + shift] for i in range(p)] + [x[a + 1:b + 1]]
        gram = _product_sums(cols, pairs, gram)
        num = _product_sums(cols, numerators, num)
        s = max(0, start - 1 - a)
        if s < b - a:
            theta = np.empty((p, b - a - s))  # one row per component
            if not _ldl_solve(gram[s:], num[s:], theta):
                g = _mirror(gram[s:].T, np.empty((p, p, b - a - s))).transpose(2, 0, 1)
                theta[...] = np.linalg.solve(g, num[s:, :, None])[..., 0].T
            yield a + 1 + s, theta.T


def rate_diagnostic(
    params: ModelParams,
    n_max: int,
    seed: int = 0,
    noise: NoiseSpec | None = None,
) -> dict:
    """Single-path rate diagnostics for the coefficient estimator.

    Tracks the log-averaged outer product of the estimation errors toward
    the asymptotic covariance (quadratic strong law) and the boundedness of
    the iterated-logarithm normalization n ||error||^2 / (2 log log n).
    The checkpoints are 8 log-spaced stages from min(1000, n_max) to n_max,
    past the first estimation stage max(50, 10p); n_max must exceed that stage.
    """
    _check_params(params)
    n_max = _check_integer("n_max", n_max)
    start = max(50, 10 * params.p)
    if n_max <= start:
        raise ValueError(f"n_max must be > the first estimation stage {start}, "
                         f"got {n_max}")
    limits = limit_summary(params)
    x = simulate(params, n_max, noise=noise, seed=seed).x  # an impossible n_max raises here
    grid = np.unique(np.geomspace(min(1000, n_max), n_max, 8).astype(int))
    checkpoints = [cp for cp in grid.tolist() if cp > start]
    p = params.p
    # the error and the running sum of its outer products, read at each
    # checkpoint as its block passes. The sum covers the upper triangle
    # (i <= j) in row order; errors are held one row per component, so that
    # each multiplication runs along the stages of the block.
    rows, cum_upper = [], None
    tr_sigma = float(np.trace(limits.Sigma_theta))
    for k0, theta in _theta_hat_blocks(x, p, start):
        err = theta.T - limits.theta_star[:, None]
        cum_upper = _product_sums(err, _pairs(p), cum_upper)
        for cp in checkpoints:
            if k0 <= cp < k0 + len(theta):
                e = err[:, cp - k0]
                qsl = _mirror(cum_upper[cp - k0], np.empty((p, p))) / np.log(cp)
                lil = cp * float(_dot(e, e)) / (2.0 * np.log(np.log(cp)))
                rows.append(
                    {
                        "n": cp,
                        "qsl_matrix": qsl.tolist(),
                        "qsl_rel_error": float(
                            np.linalg.norm(qsl - limits.Sigma_theta)
                            / np.linalg.norm(limits.Sigma_theta)
                        ),
                        "lil_normalized": lil,
                        "lil_over_trace": lil / tr_sigma,
                    }
                )
    return {
        "n_max": n_max,
        "trace_sigma_theta": tr_sigma,
        "sigma_theta": limits.Sigma_theta.tolist(),
        "checkpoints": rows,
    }
