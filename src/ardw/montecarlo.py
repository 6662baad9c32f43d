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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArdwError, RowErrors
from .estimators import fit
from .limit_theory import LimitSummary, ModelParams, _check_integer, limit_summary
from .serial_tests import TEST_NAMES, _check_level, _check_names, outcome_masks
from .simulate import NoiseSpec, _check_length, _check_seed_int, _linear_filter, _paths, simulate
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
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("reps", "master_seed", "burn_in"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        object.__setattr__(self, "n_list", tuple(_check_integer("n", n) for n in self.n_list))
        if self.master_seed < 0 or self.burn_in < 0:
            raise ValueError("master_seed and burn_in must be >= 0")
        if self.reps < 100:
            raise ValueError("reps must be >= 100")
        object.__setattr__(self, "level", _check_level(self.level))
        _check_names(self.tests)
        for prm in self.params_list:
            if any(n < prm.p + 2 for n in self.n_list):
                raise ValueError(f"every n must be >= p+2 = {prm.p + 2}")

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
#: runs its stages in blocks of BLOCK_ELEMENTS // p**2, one (p, p) Gram
#: matrix per stage.
BLOCK_ELEMENTS = 2**16


def _replicate(params, n, noise, seeds, burn_in=0, level=0.05, names=()):
    """Simulate, fit and test the path of each seed in turn, in blocks of at
    most BLOCK_ELEMENTS // n rows; yields per block the fits, their errors
    and, per test name, the masks (reject, inapplicable) of `outcome_masks`.
    The arguments are those of simulate, already checked: the seeds are
    tuples of ints."""
    rows = max(1, BLOCK_ELEMENTS // n)
    for start in range(0, len(seeds), rows):
        x = _paths(params, n, noise, seeds[start:start + rows], burn_in)[0]
        errors = RowErrors(len(x))
        fits = fit(x, params.p, errors)
        yield fits, errors, outcome_masks(x, fits, errors.failed, level, names)


def _run_chunk(args) -> Counter:
    """Counts keyed (test name, "reject" | "inapplicable") over a range of
    replications of one (params, n) cell."""
    config, params_id, n, rep_range = args
    seeds = [(config.master_seed, params_id, n, rep) for rep in rep_range]
    counts = Counter()
    for _, _, tests in _replicate(config.params_list[params_id], n, config.noise, seeds,
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
    workers = _check_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
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
    n, reps = _check_integer("n", n), _check_integer("reps", reps)
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    limits: LimitSummary = limit_summary(params)
    _check_length(params, n)
    seed = _check_seed_int(seed)
    kept, first = [], None
    seeds = [(seed, rep) for rep in range(reps)]
    for fits, errors, _ in _replicate(params, n, noise, seeds):
        ok = ~errors.failed
        kept.append((fits.theta_hat[ok], fits.rho_hat[ok], fits.dw[ok]))
        if first is None and not ok.all():
            first = errors.error(int(np.argmin(ok)))
    theta, rho, dw = (np.concatenate(a) for a in zip(*kept))
    if len(dw) < 2:
        raise ArdwError(f"kept {len(dw)} of {reps} fits, need 2; first failure: "
                        f"{type(first).__name__}: {first}")
    errs = np.sqrt(n) * np.column_stack([theta - limits.theta_star, rho - limits.rho_star])
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
        emp = np.cov(errs, rowvar=False)
        report["empirical_gamma"] = emp.tolist()
        report["gamma"] = limits.Gamma.tolist()
        report["rel_frobenius_joint"] = float(
            np.linalg.norm(emp - limits.Gamma) / np.linalg.norm(limits.Gamma)
        )
    return report


def _running_sum(terms: np.ndarray, last: np.ndarray | None) -> np.ndarray:
    """np.cumsum(terms, axis=0) in place, continued from the last row of the
    previous block: the same additions in the same order as one cumsum over
    the whole path. The first block (last None) adds nothing, so a -0.0 stays."""
    if last is not None:
        terms[0] += last[-1]
    return np.cumsum(terms, axis=0, out=terms)


def _upper_products(cols, out: np.ndarray) -> np.ndarray:
    """Row k of out = cols[i] * cols[j] for the k-th pair i <= j in row order,
    the order of np.triu_indices: one multiplication along each pair's rows."""
    for row, i, j in zip(out, *np.triu_indices(len(cols))):
        np.multiply(cols[i], cols[j], out=row)
    return out


def _theta_hat_blocks(x: np.ndarray, p: int, start: int):
    """Estimates at every stage k >= start along one path, in blocks of at
    most BLOCK_ELEMENTS // p**2 stages: yields (k0, theta) with row i of
    theta the estimate at stage k0 + i. The Gram and numerator sums run over
    j <= k-1 and are carried from block to block, so memory is O(n), not
    O(n p^2). The Gram sums cover the upper triangle, one row per entry."""
    n = len(x) - 1
    xp = np.concatenate([np.zeros(p), x])  # lag column i of row j, X_{j-i}, is xp[j - i + p]
    rows = max(1, BLOCK_ELEMENTS // p**2)
    upper = np.triu_indices(p)
    gram = num = None
    for a in range(0, n, rows):
        b = min(a + rows, n)
        lags = [xp[a - i + p:b - i + p] for i in range(p)]
        gram = _running_sum(_upper_products(lags, np.empty((len(upper[0]), b - a))).T, gram)
        terms = np.empty((p, b - a))
        for lag, row in zip(lags, terms):
            np.multiply(lag, x[a + 1:b + 1], out=row)
        num = _running_sum(terms.T, num)
        s = max(0, start - 1 - a)
        if s < b - a:
            if p == 1 and gram[s:].all():
                # LAPACK's gesv solves a 1x1 system by this one division, and
                # warns of nothing; a zero pivot goes to solve, which raises
                with np.errstate(all="ignore"):
                    theta = num[s:] / gram[s:]
            else:
                g = np.empty((b - a - s, p, p))
                g[:, upper[0], upper[1]] = g[:, upper[1], upper[0]] = gram[s:]
                theta = np.linalg.solve(g, num[s:, :, None])[..., 0]
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
    grid = np.unique(np.geomspace(min(1000, n_max), n_max, 8).astype(int))
    checkpoints = [cp for cp in grid.tolist() if cp > start]
    x = simulate(params, n_max, noise=noise, seed=seed).x
    p = params.p
    upper = np.triu_indices(p)
    # the error and the running sum of its outer products, kept at the
    # checkpoints. The sum covers the upper triangle (i <= j) in row order;
    # errors and products are held one row per component, so that each
    # multiplication runs along the stages of the block.
    kept, cum_upper = {}, None
    for k0, theta in _theta_hat_blocks(x, p, start):
        err = np.subtract(theta.T, limits.theta_star[:, None], order="C")
        terms = _upper_products(err, np.empty((len(upper[0]), len(theta))))
        cum_upper = _running_sum(terms.T, cum_upper)
        for cp in checkpoints:
            if k0 <= cp < k0 + len(theta):
                kept[cp] = err[:, cp - k0].copy(), cum_upper[cp - k0].copy()

    rows = []
    tr_sigma = float(np.trace(limits.Sigma_theta))
    for cp in checkpoints:
        err, upper_sum = kept[cp]
        cum = np.empty((p, p))
        cum[upper] = cum.T[upper] = upper_sum
        qsl = cum / np.log(cp)
        lil = cp * float(err @ err) / (2.0 * np.log(np.log(cp)))
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
