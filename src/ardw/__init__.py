"""Asymptotics of the Durbin-Watson statistic for stable AR(p) processes
driven by AR(1) noise: closed-form limits, least squares estimation,
serial-correlation tests and Monte-Carlo studies."""

import importlib
import types

from .errors import ArdwError
from .limit_theory import (
    LimitSummary,
    ModelParams,
    beta_vector,
    build_B,
    check_stability,
    companion_matrix,
    limit_summary,
    lyapunov_lambda_oracle,
    solve_lambda,
    toeplitz_delta,
)

# bound here, after the submodule loads, so that ardw.simulate is the function
from .simulate import NoiseSpec, Trajectory, simulate

__version__ = "0.1.0"

# the public names of the modules that load on the first use of one of them
_DEFERRED = {
    "estimators": ("FitResult", "fit", "read_series", "yule_walker_fit"),
    "montecarlo": ("DEFAULT_SUITE", "PowerTable", "StudyConfig", "clt_diagnostic",
                   "rate_diagnostic", "size_power_study"),
    "serial_tests": ("TestOutcome", "chi2_quantile", "chi2_sf", "durbin_h_test",
                     "dw_chi2_test", "normal_sf", "outcomes_to_csv", "run_tests"),
}

# every public name, and no submodule
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)]
                 + [name for names in _DEFERRED.values() for name in names])


def __getattr__(name):
    if name in _DEFERRED:
        return importlib.import_module(f"{__name__}.{name}")
    for module, names in _DEFERRED.items():
        if name in names:
            return getattr(__getattr__(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
