"""Trajectory generation for the AR(p) model with AR(1)-correlated noise.

A single documented PRNG (numpy PCG64 seeded through SeedSequence) guarantees
identical streams for identical seeds on every platform. Replication seeds
for parallel studies are derived from (master_seed, context indices) through
SeedSequence spawning keys, so results never depend on scheduling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .limit_theory import ModelParams
from .text import csv_text, json_text

_FAMILIES = ("gaussian", "uniform", "student_t", "rademacher")


@dataclass(frozen=True)
class NoiseSpec:
    """Innovation family, always centered and scaled to variance sigma2.

    student_t requires df > 4: the asymptotic normality results need a
    finite fourth moment.
    """

    family: str = "gaussian"
    sigma2: float = 1.0
    df: float = 5.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (0.0 < self.sigma2 < np.inf):
            raise ValueError("sigma2 must be finite and > 0")
        if not np.isfinite(self.df):
            raise ValueError("df must be finite")
        if self.family == "student_t" and not (self.df > 4.0):
            raise ValueError("student_t noise needs df > 4 (finite 4th moment)")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Centered innovations with variance exactly sigma2."""
        s = np.sqrt(self.sigma2)
        if self.family == "gaussian":
            return s * rng.standard_normal(size)
        if self.family == "uniform":
            a = np.sqrt(3.0 * self.sigma2)
            return rng.uniform(-a, a, size)
        if self.family == "student_t":
            scale = s / np.sqrt(self.df / (self.df - 2.0))
            return scale * rng.standard_t(self.df, size)
        return s * (2.0 * rng.integers(0, 2, size) - 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Simulated sample path with full seed provenance.

    x and eps have length n+1 (indices 0..n); v holds the innovations
    V_0..V_n where V_0 only feeds the initial noise value. For a list of
    seeds they hold one row per seed. A tuple seed (as
    in studies) is stored as a list in the JSON sidecar and read back as a
    tuple.
    """

    x: np.ndarray
    eps: np.ndarray
    v: np.ndarray
    params: ModelParams
    seed: int | tuple[int, ...]
    burn_in: int = 0

    def to_csv(self, path: str | Path) -> None:
        """Series to CSV plus a JSON sidecar with parameters and seed. A block
        (from a list of seeds) raises ValueError: a CSV holds one series."""
        if self.x.ndim != 1:
            raise ValueError(f"to_csv writes one series; this block holds {len(self.x)} rows")
        path = Path(path)
        path.write_text(csv_text(("x", "eps", "v"), zip(self.x, self.eps, self.v)))
        sidecar = {
            "p": self.params.p,
            "theta": self.params.theta.tolist(),
            "rho": self.params.rho,
            "sigma2": self.params.sigma2,
            "seed": self.seed,
            "burn_in": self.burn_in,
        }
        path.with_suffix(path.suffix + ".json").write_text(json_text(sidecar))

    @classmethod
    def from_csv(cls, path: str | Path) -> "Trajectory":
        path = Path(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        seed, burn_in = meta.pop("seed"), meta.pop("burn_in")
        return cls(
            x=data[:, 0], eps=data[:, 1], v=data[:, 2], params=ModelParams(**meta),
            seed=tuple(seed) if isinstance(seed, list) else seed, burn_in=burn_in,
        )


def derive_rng(master_seed: int, *context: int) -> np.random.Generator:
    """Deterministic per-task generator from a master seed and context indices."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *context)))


def simulate(
    params: ModelParams,
    n: int,
    noise: NoiseSpec | None = None,
    seed: int | tuple[int, ...] | list = 0,
    burn_in: int = 0,
) -> Trajectory:
    """Generate X_0..X_n under the model recursion.

    Pre-sample observations are zero and X_0 equals the initial noise value.
    The noise chain starts stationary (eps_0 = V_0/sqrt(1-rho^2)) burn_in
    steps before the first reported index, so the observation recursion
    holds exactly at every reported index. A list of seeds gives a block:
    one path per seed, each drawn as that seed alone would draw it, as the
    rows of x, eps and v.
    """
    # importing scipy.signal takes about a second; only simulating needs it
    from scipy.signal import lfilter

    if n < params.p + 2:
        raise ValueError(f"need n >= p+2 = {params.p + 2}")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if noise is None:
        noise = NoiseSpec(sigma2=params.sigma2)
    rho = params.rho

    seeds = seed if isinstance(seed, list) else [seed]
    v = np.empty((len(seeds), burn_in + n + 1))
    for row, s in zip(v, seeds):
        rng = derive_rng(*s) if isinstance(s, tuple) else derive_rng(s)
        row[:] = noise.draw(rng, v.shape[1])
    eps = np.empty_like(v)
    eps[:, 0] = v[:, 0] / np.sqrt(1.0 - rho * rho)
    eps[:, 1:], _ = lfilter([1.0], [1.0, -rho], v[:, 1:], zi=rho * eps[:, :1])
    v, eps = v[:, burn_in:], eps[:, burn_in:]
    # observation recursion with zero pre-sample values, run in C
    x = lfilter([1.0], np.concatenate(([1.0], -params.theta)), eps)
    if not isinstance(seed, list):
        x, eps, v = x[0], eps[0], v[0]
    return Trajectory(x=x, eps=eps, v=v, params=params, seed=seed, burn_in=burn_in)
