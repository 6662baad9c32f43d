"""Seeded Monte-Carlo studies: size/power tables, CLT covariance diagnostics
and almost-sure rate diagnostics.

Every replication derives its own generator from
(master_seed, params_id, n, rep_index), so tables are byte-identical for any
worker count or scheduling order.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from .errors import ArdwError, RowErrors
from .estimators import _dot, fit
from .limit_theory import LimitSummary, ModelParams, _check_integer, limit_summary
from .serial_tests import TEST_NAMES, _check_level, _check_names, outcome_masks
from .simulate import NoiseSpec, _check_length, _linear_filter, _paths, simulate
from .text import csv_text

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
        for name, low in (("reps", 100), ("master_seed", 0), ("burn_in", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low))
        object.__setattr__(self, "n_list", tuple(_check_integer("n", n) for n in self.n_list))
        object.__setattr__(self, "level", _check_level(self.level))
        _check_names(self.tests)
        for prm in self.params_list:
            for n in self.n_list:
                _check_length(prm, n)

    @classmethod
    def from_json(cls, path: str | Path) -> "StudyConfig":
        """Read a JSON object keyed by field name. A missing or unknown key, or
        a value of the wrong kind, raises ValueError."""
        raw = json.loads(Path(path).read_text())
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
    """Counts keyed (test name, "reject" | "inapplicable") over a range of
    replications of one (params, n) cell."""
    config, params_id, n, reps = args
    counts = Counter()
    for _, _, tests in _replicate(config.params_list[params_id], n, config.noise,
                                  (config.master_seed, params_id, n), reps,
                                  config.burn_in, config.level, config.tests):
        for name, (reject, inapplicable) in tests.items():
            counts[name, "reject"] += int(reject.sum())
            counts[name, "inapplicable"] += int(inapplicable.sum())
    return counts


def size_power_study(config: StudyConfig, workers: int = 1) -> PowerTable:
    """Tabulate empirical rejection frequencies over the study grid.

    Deterministic for a fixed master_seed whatever the worker count:
    replication seeds depend only on their grid coordinates and results are
    merged in grid order. workers > 1 runs the chunks on one process pool
    for the whole study, of at most os.cpu_count() processes; workers must
    be an integer >= 1, or ValueError.
    """
    workers = min(_check_integer("workers", workers, 1), os.cpu_count() or 1)
    cells = [
        (params_id, n)
        for params_id in range(len(config.params_list))
        for n in config.n_list
    ]
    chunk_size = max(1, config.reps // (4 * workers))
    chunks = [
        (config, params_id, n, range(r, min(r + chunk_size, config.reps)))
        for params_id, n in cells
        for r in range(0, config.reps, chunk_size)
    ]
    totals = {cell: Counter() for cell in cells}
    if workers > 1:
        _linear_filter()  # loaded once here, not in each forked worker
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing, for pools only
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        results = (pool.map if pool else map)(_run_chunk, chunks)
        for (_, params_id, n, _), counts in zip(chunks, results):
            totals[params_id, n].update(counts)

    rows = []
    for (params_id, n), counts in totals.items():
        for name in config.tests:
            r = counts[name, "reject"] / config.reps
            rows.append(dict(zip(_COLUMNS, (
                params_id, n, name, r, counts[name, "inapplicable"] / config.reps,
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
    n, reps = _check_integer("n", n), _check_integer("reps", reps, 2)
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


@np.errstate(all="ignore")  # LAPACK warns of nothing
def _lu_solve(gram, num, out) -> bool:
    """Solve A x = num into out (A mirrored from its upper triangle gram) as
    OpenBLAS's dgesv does for p <= 5, each step over all the stages: getf2's
    left-looking LU (pivot: the first largest |c_i|, by its reciprocal), then
    getrs' substitutions, fused term by term. False where LAPACK may differ:
    p > 5, a non-finite entry, a pivot below the smallest normal double, or a
    zero at either end of a fused sum, whose sign ddot's start from +0 can
    flip."""
    m, p = out.shape
    if p > 5:
        return False
    work = np.empty((2 * p + 2, p, m))
    e, z, v = work[:p + 1], work[p + 1:-1], work[-1]
    e[0] = num.T  # e[1 + j, i] = A[i, j]: a stage along the last axis
    _mirror(gram.T, e[1:])
    t = z[0]  # scratch until the substitutions
    for j in range(p):
        c = e[1 + j]  # column j, with the interchanges so far
        for i in range(1, j):
            c[i] -= _dot(e[1:1 + i, i].T, c[:i].T, t[0])
        if j:
            c[j:] -= _dot(e[1:1 + j, j:].T, c[:j].T[:, None], t[:p - j].T).T
        if j + 1 < p:
            mag = np.abs(c[j:], out=t[:p - j])
            if (mag[1:] > mag[0]).any():  # interchange row j and the pivot's
                r, s = j + np.argmax(mag, axis=0), np.arange(m)
                e[:, j, s], e[:, r, s] = e[:, r, s], e[:, j, s]
            c[j + 1:] *= np.divide(1.0, c[j], out=t[0])
    # row i of z: y_i, then U[i, p-1], ..., U[i, i+1], the order of the
    # substitutions' updates; v: 1, then the negated entries solved so far
    z[1:], z[0, 0], v[0] = e[p:1:-1], e[0, 0], 1.0
    for i in range(1, p):
        np.negative(z[0, i - 1], out=v[i])
        _dot(v[:i + 1].T, e[:i + 1, i].T, z[0, i])
    np.divide(z[0, p - 1], e[p, p - 1], out=out[:, p - 1])
    for i in range(p - 2, -1, -1):
        np.negative(out[:, i + 1], out=v[p - 1 - i])
        _dot(v[:p - i].T, z[:p - i, i].T, out[:, i])
        out[:, i] /= e[1 + i, i]
    return bool(np.abs(np.diagonal(e[1:])).min() >= np.finfo(float).tiny and e[0, 1:].all()
                and np.isfinite(e.sum() + out.sum()) and z[0].all() and out[:, :-1].all())


def _theta_hat_blocks(x: np.ndarray, p: int, start: int):
    """Estimates at every stage k >= start along one path, in blocks of at
    most BLOCK_ELEMENTS // (2p (p+1)) stages: yields (k0, theta) with row i
    of theta the estimate at stage k0 + i. The Gram and numerator sums run
    over j <= k-1 and are carried from block to block, so memory is O(n),
    not O(n p^2). The Gram sums cover the upper triangle, one column per
    entry. Lag column i of row j, X_{j-i}, is a slice of x, or of a copy of
    x[:b] after p zeros for a block that starts before X_p. The blocks
    _lu_solve declines go to np.linalg.solve, which raises if singular."""
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
            theta = np.empty((b - a - s, p))
            if not _lu_solve(gram[s:], num[s:], theta):
                g = _mirror(gram[s:].T, np.empty((p, p, len(theta)))).transpose(2, 0, 1)
                theta[...] = np.linalg.solve(g, num[s:, :, None])[..., 0]
            yield a + 1 + s, theta


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
    # each multiplication runs along the stages of the block. The error
    # column is copied: e @ e of a strided column of 4 or more terms sums in
    # another order.
    rows, cum_upper = [], None
    tr_sigma = float(np.trace(limits.Sigma_theta))
    for k0, theta in _theta_hat_blocks(x, p, start):
        err = np.subtract(theta.T, limits.theta_star[:, None], order="C")
        cum_upper = _product_sums(err, _pairs(p), cum_upper)
        for cp in checkpoints:
            if k0 <= cp < k0 + len(theta):
                e = err[:, cp - k0].copy()
                qsl = _mirror(cum_upper[cp - k0], np.empty((p, p))) / np.log(cp)
                lil = cp * float(e @ e) / (2.0 * np.log(np.log(cp)))
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
