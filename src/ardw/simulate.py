"""Trajectory generation for the AR(p) model with AR(1)-correlated noise.

A single documented PRNG (numpy PCG64 seeded through SeedSequence) guarantees
identical streams for identical seeds on every platform. A replication's
seed is the SeedSequence entropy itself: the tuple (master_seed, context
indices), or (seed,) for an int seed; no spawn key is used. So results never
depend on scheduling. A block of seeds is hashed in one numpy pass that
reproduces SeedSequence's algorithm bit for bit, and each row's PCG64 takes
its precomputed words, so every row draws what
default_rng(SeedSequence(entropy)) would draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .limit_theory import ModelParams, _check_integer, _check_params, _check_reals
from .text import as_path, csv_text, json_text, record_dict

_FAMILIES = ("gaussian", "uniform", "student_t", "rademacher")


@dataclass(frozen=True)
class NoiseSpec:
    """Innovation family, always centered and scaled to variance sigma2.

    student_t requires df > 4: the asymptotic normality results need a
    finite fourth moment. sigma2 and df must be real numbers and are stored
    as float.
    """

    family: str = "gaussian"
    sigma2: float = 1.0
    df: float = 5.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        for name in ("sigma2", "df"):
            object.__setattr__(self, name, _check_reals(name, getattr(self, name), scalar=True))
        if not (0.0 < self.sigma2 < np.inf):
            raise ValueError("sigma2 must be finite and > 0")
        if self.family == "uniform" and not np.isfinite(np.sqrt(3.0 * self.sigma2)):
            raise ValueError(f"uniform noise needs sqrt(3 sigma2) finite, got {self.sigma2}")
        if not np.isfinite(self.df):
            raise ValueError("df must be finite")
        if self.family == "student_t" and not (self.df > 4.0):
            raise ValueError("student_t noise needs df > 4 (finite 4th moment)")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size centered innovations with variance exactly sigma2, drawn from
        rng. An rng that is not a numpy Generator, or a size that is not an
        integer >= 0, raises ValueError."""
        if not isinstance(rng, np.random.Generator):
            raise ValueError(f"rng must be a numpy Generator, got {rng!r}")
        return self._block([rng], _check_integer("size", size, 0))[0]

    def _block(self, rngs: list, m: int) -> np.ndarray:
        """The (len(rngs), m) block whose row i is what draw(rngs[i], m) draws,
        from checked arguments."""
        family = self.family
        out, a = np.empty((len(rngs), m)), np.sqrt(3.0 * self.sigma2)
        # each row draws into its place (a gaussian row without a temporary),
        # then one affine map scales the block with the operations of one row
        for row, g in zip(out, rngs):
            if family == "gaussian":
                g.standard_normal(out=row)
            else:
                row[:] = (g.uniform(-a, a, m) if family == "uniform" else
                          g.standard_t(self.df, m) if family == "student_t" else
                          g.integers(0, 2, m))
        s = np.sqrt(self.sigma2)
        if family == "gaussian":
            if s != 1.0:  # x * 1.0 is x, bit for bit
                out *= s
        elif family == "student_t":
            out *= s / np.sqrt(self.df / (self.df - 2.0))
        elif family == "rademacher":
            out[:] = s * (2.0 * out - 1.0)
        return out


@dataclass(frozen=True)
class Trajectory:
    """Simulated sample path with full seed provenance.

    x and eps have length n+1 (indices 0..n); v holds the innovations
    V_0..V_n where V_0 only feeds the initial noise value. noise is the spec
    the innovations were drawn with; None stands for simulate's default,
    gaussian with the model's sigma2. A tuple seed (as in studies) is stored
    as a list in the JSON sidecar and read back as a tuple. A params that is
    not a ModelParams, x, eps and v that are not 1-D float arrays of one
    length, or a seed or burn_in that simulate refuses, raises ValueError.
    """

    x: np.ndarray
    eps: np.ndarray
    v: np.ndarray
    params: ModelParams
    seed: int | tuple[int, ...]
    burn_in: int = 0
    noise: NoiseSpec | None = None

    def __post_init__(self):
        _check_params(self.params)
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "burn_in", _check_integer("burn_in", self.burn_in, 0))
        paths = (self.x, self.eps, self.v)
        if not (all(isinstance(a, np.ndarray) and a.dtype == float for a in paths)
                and self.x.ndim == 1 and self.x.shape == self.eps.shape == self.v.shape):
            got = ", ".join(f"{getattr(a, 'dtype', type(a).__name__)} {np.shape(a)}"
                            for a in paths)
            raise ValueError(f"x, eps and v must be 1-D float arrays of one length, got {got}")
        object.__setattr__(self, "noise", _noise(self.params, self.noise))

    def to_csv(self, path: str | Path) -> None:
        """Series to CSV plus a JSON sidecar with the parameters, noise and
        seed that simulate it again."""
        path = as_path(path)
        path.write_text(csv_text(("x", "eps", "v"), zip(self.x, self.eps, self.v)))
        sidecar = {**record_dict(self.params), "noise": record_dict(self.noise),
                   "seed": self.seed, "burn_in": self.burn_in}
        path.with_suffix(path.suffix + ".json").write_text(json_text(sidecar))

    @classmethod
    def from_csv(cls, path: str | Path) -> "Trajectory":
        """The series and sidecar that to_csv writes. A sidecar without a
        noise key (written before it had one) reads as simulate's default
        noise for its parameters. A series file without rows of three values,
        or a sidecar that is not an object of to_csv's keys, raises
        ValueError."""
        path = as_path(path)
        rows = [line for line in path.read_text().splitlines()[1:] if line.strip()]
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else None
        if data is None or data.shape[1] != 3:
            raise ValueError(f"{path} must hold a header line and rows of x, eps and v")
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        try:
            meta = {**meta}  # TypeError unless a JSON object
            seed, burn_in, noise = meta.pop("seed"), meta.pop("burn_in"), meta.pop("noise", None)
            params, noise = ModelParams(**meta), None if noise is None else NoiseSpec(**noise)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed trajectory sidecar: {exc!r}") from exc
        return cls(x=data[:, 0], eps=data[:, 1], v=data[:, 2], params=params,
                   seed=tuple(seed) if isinstance(seed, list) else seed, burn_in=burn_in,
                   noise=noise)


# SeedSequence's constants (numpy/random/bit_generator.pyx); every hash is
# taken on uint32 words, so products wrap modulo 2**32 as numpy's do. The
# operands are 0-d arrays: numpy combines those with an array faster than
# Python ints or numpy scalars, which counts on blocks of a few rows.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_POOL = 4


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k modulo 2**32 for k = 0..count, as a column: the hash
    constant of each successive hashmix call."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)[:, None]


_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, _POOL * _POOL)
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL)
_OTHERS = [np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL)]


def _hashmix(value: np.ndarray, chain: np.ndarray, k: int, calls: int) -> np.ndarray:
    """numpy's hashmix of value, for `calls` successive calls starting at
    call k of chain, one call per row of the result."""
    value = (value ^ chain[k:k + calls]) * chain[k + 1:k + calls + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _XSHIFT)


def _state_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64: SeedSequence(e).generate_state(4, np.uint64) for
    each column e of an (L, rows) uint32 entropy array, column j holding
    lengths[j] words and zeros past them, every column hashed at once."""
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    # numpy hashes a zero for each pool word past a short entropy
    pool[:len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, _CHAIN_A, 0, _POOL)
    # each pool word mixes into the others, in numpy's (source, target) order
    calls = _POOL - 1
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _CHAIN_A, _POOL + calls * src, calls))
    if len(entropy) > _POOL:
        chain = _hash_chain(int(_CHAIN_A[-1, 0]), _MULT_A, _POOL * (len(entropy) - _POOL))
        for k, word in enumerate(entropy[_POOL:]):
            mixed = _mix(pool, _hashmix(word, chain, _POOL * k, _POOL))
            pool = np.where(lengths > _POOL + k, mixed, pool)
    state = _hashmix(np.concatenate((pool, pool)), _CHAIN_B, 0, 2 * _POOL).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T.copy()


def _entropy_words(seed) -> list[int]:
    """The uint32 words of a checked seed's SeedSequence entropy, which is
    the seed if a tuple and (seed,) if an int: each int as its 32-bit words,
    low first (one word for 0). Ints past uint64 split the same way."""
    words = []
    for v in seed if isinstance(seed, tuple) else (seed,):
        words.append(v & 0xFFFFFFFF)
        while v := v >> 32:
            words.append(v & 0xFFFFFFFF)
    return words


def _seed_words(seeds: list) -> np.ndarray:
    """(rows, 4) uint64: SeedSequence(e).generate_state(4, np.uint64) for
    each checked seed, e its entropy (see _entropy_words)."""
    words = [_entropy_words(s) for s in seeds]
    lengths = np.array([len(w) for w in words], dtype=np.intp)
    width = lengths.max(initial=0)
    entropy = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32)
    return _state_words(entropy.reshape(len(seeds), width).T, lengths)


class _SeedWords:
    """A SeedSequence hashed ahead of time: it holds the four uint64 words
    that PCG64 asks it for, and nothing else. PCG64 reads the words' memory,
    so they must be a contiguous row of native uint64. _generators registers
    it as a numpy ISeedSequence on each call (registering again is a no-op),
    so ardw does not import numpy.random itself."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (_POOL, np.uint64):
            raise ValueError("holds only the 4 uint64 words that seed PCG64")
        return self.words


def _check_seed(seed) -> int | tuple[int, ...]:
    """seed, an int or a non-empty tuple of ints, with every int as int."""
    if not isinstance(seed, tuple):
        return _check_integer("seed", seed, 0)
    if not seed:
        raise ValueError("a seed tuple needs at least one integer")
    return tuple(_check_integer("seed", s, 0) for s in seed)


def _generators(seeds: list) -> list[np.random.Generator]:
    """One generator per checked seed, drawing what
    default_rng(SeedSequence(entropy)) draws (see _seed_words)."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in _seed_words(seeds)]


def derive_rng(master_seed: int, *context: int) -> np.random.Generator:
    """Deterministic per-task generator from a master seed and context
    indices: default_rng(SeedSequence((master_seed, *context)))."""
    return _generators([_check_seed((master_seed, *context))])[0]


def _noise(params: ModelParams, noise: NoiseSpec | None) -> NoiseSpec:
    """noise, or for None simulate's default: gaussian with the model's sigma2.
    Anything else raises ValueError."""
    if noise is not None and not isinstance(noise, NoiseSpec):
        raise ValueError(f"noise must be a NoiseSpec or None, got {noise!r}")
    return NoiseSpec(sigma2=params.sigma2) if noise is None else noise


def _check_length(params: ModelParams, n: int) -> None:
    if n < params.p + 2:
        raise ValueError(f"need n >= p+2 = {params.p + 2}")


def simulate(
    params: ModelParams,
    n: int,
    noise: NoiseSpec | None = None,
    seed: int | tuple[int, ...] = 0,
    burn_in: int = 0,
) -> Trajectory:
    """Generate X_0..X_n under the model recursion.

    Pre-sample observations are zero and X_0 equals the initial noise value.
    The noise chain starts stationary (eps_0 = V_0/sqrt(1-rho^2)) burn_in
    steps before the first reported index, so the observation recursion
    holds exactly at every reported index. n, burn_in and the seed (an int
    or a tuple of ints) must be integers (numpy integers are stored as int)
    and the seed >= 0, and params a ModelParams, or ValueError.
    """
    _check_params(params)
    n, burn_in = _check_integer("n", n), _check_integer("burn_in", burn_in, 0)
    _check_length(params, n)
    seed = _check_seed(seed)
    x, eps, v = (a[0] for a in _paths(params, n, noise, [seed], burn_in))
    return Trajectory(x=x, eps=eps, v=v, params=params, seed=seed, burn_in=burn_in,
                      noise=noise)


@cache
def _linear_filter():
    """scipy's IIR filter kernel, _linear_filter(b, a, x, axis[, zi]), the C
    function behind scipy.signal.lfilter, from its extension module alone,
    looked up in scipy's signal folder: finding scipy.signal would import
    scipy, and importing it about 750 modules. Loaded on the first
    simulation, so import ardw does without scipy."""
    import importlib.machinery
    import importlib.util

    name, spec = "scipy.signal._sigtools", None
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        signal = [str(Path(d, "signal")) for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, signal)
    if spec is None:
        raise ImportError(f"scipy's filter kernel {name} was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


def _paths(params: ModelParams, n: int, noise: NoiseSpec | None, seeds: list,
           burn_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, eps and v blocks, one row per seed, each row what simulate draws
    for that seed alone, from checked arguments (seeds as _check_seed gives)."""
    linear_filter = _linear_filter()
    rho = params.rho
    v = _noise(params, noise)._block(_generators(seeds), burn_in + n + 1)
    eps = np.empty_like(v)
    eps[:, 0] = v[:, 0] / np.sqrt(1.0 - rho * rho)
    # both filters get the arrays scipy.signal.lfilter passes to this kernel
    # for a denominator of two or more taps, so every bit is lfilter's
    one = np.array([1.0])
    eps[:, 1:], _ = linear_filter(one, np.array([1.0, -rho]), v[:, 1:], -1, rho * eps[:, :1])
    v, eps = v[:, burn_in:], eps[:, burn_in:]
    # observation recursion with zero pre-sample values, run in C
    x = linear_filter(one, np.concatenate(([1.0], -params.theta)), eps, -1)
    return x, eps, v
