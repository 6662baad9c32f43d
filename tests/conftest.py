import numpy as np
import pytest
from hypothesis import settings

from ardw import ModelParams

pytest_plugins = ["pytester"]

# property tests are deterministic and bounded, so tier-1 stays reproducible
# and fast: a fixed example sequence, no example database, no deadline
settings.register_profile(
    "ardw", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("ardw")


def random_stable_params(rng: np.random.Generator, p: int | None = None) -> ModelParams:
    """Rejection-sample a parameter set well inside the stability region."""
    while True:
        pp = int(rng.integers(1, 6)) if p is None else p
        theta = rng.uniform(-1.0, 1.0, pp)
        norm = np.abs(theta).sum()
        if norm == 0.0:
            continue
        theta *= rng.uniform(0.05, 0.95) / norm
        if np.all(theta == 0.0) or abs(theta[-1]) < 1e-6:
            continue
        rho = rng.uniform(-0.95, 0.95)
        return ModelParams(p=pp, theta=theta, rho=rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
