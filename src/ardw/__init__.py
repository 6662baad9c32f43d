"""Asymptotics of the Durbin-Watson statistic for stable AR(p) processes
driven by AR(1) noise: closed-form limits, least squares estimation,
serial-correlation tests and Monte-Carlo studies."""

from .errors import ArdwError
from .estimators import (
    FitResult,
    dw_statistic,
    fit,
    ols_rho,
    ols_theta,
    read_series,
    residuals,
    yule_walker_fit,
)
from .limit_theory import (
    LimitSummary,
    ModelParams,
    alpha_scalar,
    beta_vector,
    build_B,
    check_stability,
    companion_matrix,
    limit_summary,
    lyapunov_lambda_oracle,
    solve_lambda,
    toeplitz_delta,
)
from .montecarlo import (
    DEFAULT_SUITE,
    PowerTable,
    StudyConfig,
    clt_diagnostic,
    rate_diagnostic,
    size_power_study,
)
from .serial_tests import (
    TestOutcome,
    chi2_quantile,
    chi2_sf,
    durbin_h_test,
    dw_chi2_test,
    normal_quantile,
    normal_sf,
    outcomes_to_csv,
    run_tests,
)
from .simulate import NoiseSpec, Trajectory, simulate

__version__ = "0.1.0"

__all__ = [
    "ArdwError",
    "DEFAULT_SUITE",
    "FitResult",
    "LimitSummary",
    "ModelParams",
    "NoiseSpec",
    "PowerTable",
    "StudyConfig",
    "TestOutcome",
    "Trajectory",
    "alpha_scalar",
    "beta_vector",
    "build_B",
    "check_stability",
    "chi2_quantile",
    "chi2_sf",
    "clt_diagnostic",
    "companion_matrix",
    "durbin_h_test",
    "dw_chi2_test",
    "dw_statistic",
    "fit",
    "limit_summary",
    "lyapunov_lambda_oracle",
    "normal_quantile",
    "normal_sf",
    "ols_rho",
    "ols_theta",
    "outcomes_to_csv",
    "rate_diagnostic",
    "read_series",
    "residuals",
    "run_tests",
    "simulate",
    "size_power_study",
    "solve_lambda",
    "toeplitz_delta",
    "yule_walker_fit",
]
