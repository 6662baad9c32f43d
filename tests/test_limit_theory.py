import hashlib
import inspect
import re
import warnings

import numpy as np
import pytest

import ardw
import ardw.limit_theory as lt
from ardw.errors import (
    BadVariance,
    NoConvergence,
    NotPositiveDefinite,
    SingularB,
    UnstableRho,
    UnstableTheta,
    ZeroTheta,
)
from ardw.limit_theory import _order_arrays, _system_matrix
from ardw.text import json_text

from conftest import random_stable_params


def params(theta, rho, sigma2=1.0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return ardw.ModelParams(p=len(theta), theta=theta, rho=rho, sigma2=sigma2)


def golden_grid():
    """300 seeded stable sets, 60 for each p in 1..5, and a gamma_singular one."""
    rng = np.random.default_rng(1871)
    grid = [random_stable_params(rng, p) for p in range(1, 6) for _ in range(60)]
    return [*grid, params([0.5], -0.5)]


def high_order_grid():
    """300 seeded stable sets, 60 for each p in 6..10."""
    rng = np.random.default_rng(2027)
    return [random_stable_params(rng, p) for p in range(6, 11) for _ in range(60)]


def summary_digest(grid) -> str:
    """sha256 of the JSON and the raw bytes of every matrix of each summary."""
    h = hashlib.sha256()
    for prm in grid:
        s = ardw.limit_summary(prm)
        h.update(json_text(s.to_dict()).encode())
        for a in (s.B, s.Delta_p, s.Delta_p1, s.P, s.C_A, s.Sigma_theta, s.Gamma):
            h.update(a.tobytes())
    return h.hexdigest()


def build_B_parts(params):
    """Oracle decomposition B = B1 + rho * B2 with B1 the rho-free part."""
    theta, p = params.theta, params.p
    B1 = _system_matrix(theta, 0.0, p)
    # contribution linear in rho: beta_i picks up -theta_{i-1} (theta_0 = -1
    # by convention) and the tail coefficient is theta_p
    theta_shift = np.concatenate(([-1.0], theta[:-1]))
    B2 = -_system_matrix(theta_shift, -theta[-1], p)
    np.fill_diagonal(B2, B2.diagonal() + 1.0)
    return B1, B2


class TestStability:
    def test_well_inside_region(self):
        ardw.check_stability(params([0.5], 0.3))

    def test_theta_norm_too_large(self):
        with pytest.raises(UnstableTheta):
            ardw.check_stability(params([0.6, 0.5], 0.0))

    def test_rho_boundary_excluded(self):
        with pytest.raises(UnstableRho):
            ardw.check_stability(params([0.5], 1.0))

    def test_zero_theta(self):
        with pytest.raises(ZeroTheta):
            ardw.check_stability(params([0.0], 0.3))

    def test_bad_variance(self):
        with pytest.raises(BadVariance):
            ardw.check_stability(params([0.5], 0.3, sigma2=0.0))

    @pytest.mark.parametrize(
        "theta, rho, sigma2, error, p",
        [
            ([0.6, 0.5], 0.0, 1.0, UnstableTheta, None),
            ([0.5], -1.0, 1.0, UnstableRho, None),
            ([0.0, 0.0], 0.3, 1.0, ZeroTheta, None),
            ([0.5], 0.3, -1.0, BadVariance, None),
            ([np.nan], 0.3, 1.0, ValueError, None),
            ([0.5], 0.3, np.inf, ValueError, None),
            ([0.5], 0.3, 1.0, ValueError, True),
            ([0.5], 0.3, 1.0, ValueError, 1.5),
            ([0.5], 0.3, 1.0, ValueError, "1"),
            ([0.5], 0.3, 1.0, ValueError, 2),
            ([[0.5]], 0.3, 1.0, ValueError, None),
            ([0.5j], 0.3, 1.0, ValueError, None),
            ({"a": 1}, 0.3, 1.0, ValueError, 1),
        ],
        ids=["unstable_theta", "unstable_rho", "zero_theta", "bad_variance", "nan",
             "inf_variance", "p_bool", "p_float", "p_string", "theta_shorter_than_p",
             "theta_matrix", "theta_complex", "theta_dict"],
    )
    def test_construction_enforces_region(self, theta, rho, sigma2, error, p):
        p = len(theta) if p is None else p
        with pytest.raises(error):
            ardw.ModelParams(p=p, theta=theta, rho=rho, sigma2=sigma2)

    def test_numpy_integer_p_accepted(self):
        prm = ardw.ModelParams(p=np.int64(2), theta=[0.4, -0.3], rho=0.2)
        assert prm.p == 2 and type(prm.p) is int

    @pytest.mark.parametrize("field, value", [
        ("rho", None), ("rho", "0.3"), ("rho", True), ("rho", np.array([0.3])),
        ("rho", 10**400), ("rho", 2**70), ("rho", ["0.5"]), ("rho", [True]),
        ("sigma2", None), ("sigma2", "2"), ("sigma2", True), ("sigma2", 10**400),
        ("sigma2", 2**70),
    ])
    def test_non_real_rho_or_sigma2_rejected(self, field, value):
        kw = {"rho": 0.3, "sigma2": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a real number, got"):
            ardw.ModelParams(p=1, theta=[0.5], **kw)

    def test_rho_and_sigma2_stored_as_float(self):
        prm = ardw.ModelParams(p=1, theta=[0.5], rho=np.float32(0.25), sigma2=np.int64(2))
        assert (prm.rho, prm.sigma2) == (0.25, 2.0)
        assert type(prm.rho) is float and type(prm.sigma2) is float

    def test_theta_is_a_read_only_copy(self):
        th = np.array([0.5])
        prm = ardw.ModelParams(1, th, 0.2)
        th[0] = 1.5
        assert prm.theta.tolist() == [0.5]
        ardw.limit_summary(prm)
        with pytest.raises(ValueError, match="read-only"):
            prm.theta[0] = 1.5


@pytest.mark.parametrize("bad", [{"p": 1, "theta": [0.5], "rho": 0.1}, None, (1, [0.5], 0.1)],
                         ids=["dict", "none", "tuple"])
def test_params_must_be_model_params(bad):
    # checked first: simulate's n = 1 would fail its length check after
    rest = {"check_stability": (), "beta_vector": (), "build_B": (),
            "companion_matrix": (), "limit_summary": (), "lyapunov_lambda_oracle": (5,),
            "simulate": (1,), "clt_diagnostic": (50, 10), "rate_diagnostic": (2000,)}
    # every exported function whose first parameter is a ModelParams is here
    assert sorted(rest) == [
        name for name in ardw.__all__ if inspect.isfunction(fn := getattr(ardw, name))
        and [*inspect.signature(fn).parameters.values()][0].annotation
        in ("ModelParams", ardw.ModelParams)]
    message = f"params must be a ModelParams, got {bad!r}"
    for name, args in rest.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(ardw, name)(bad, *args)
    x = np.zeros(3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ardw.Trajectory(x=x, eps=x, v=x, params=bad, seed=0)


class TestBetaAlpha:
    def test_beta_p1(self):
        assert ardw.beta_vector(params([0.4], 0.3)) == pytest.approx([0.7])

    def test_beta_rho_zero_collapses(self, rng):
        for _ in range(10):
            prm = random_stable_params(rng)
            prm0 = ardw.ModelParams(p=prm.p, theta=prm.theta, rho=0.0)
            assert ardw.beta_vector(prm0) == pytest.approx(prm.theta)

    def test_beta_p2_hand(self):
        # (0.4 + 0.2, -0.3 - 0.4*0.2)
        beta = ardw.beta_vector(params([0.4, -0.3], 0.2))
        assert beta == pytest.approx([0.6, -0.38])

    def test_alpha_rho_zero(self):
        assert ardw.limit_summary(params([0.5, 0.2], 0.0)).alpha == 1.0

    def test_alpha_p1(self):
        assert ardw.limit_summary(params([0.5], 0.3)).alpha == pytest.approx(
            1.0 / (1.0 - 0.0225), rel=1e-14
        )

    def test_alpha_p2(self):
        assert ardw.limit_summary(params([0.4, -0.3], 0.2)).alpha == pytest.approx(
            1.0 / (1.0 - 0.0036), rel=1e-14
        )


class TestSystemMatrix:
    def test_p1_entries(self):
        th, rho = 0.5, 0.3
        B = ardw.build_B(params([th], rho))
        b = th + rho
        expected = np.array(
            [
                [1.0, -b, th * rho],
                [-b, 1.0 + th * rho, 0.0],
                [th * rho, -b, 1.0],
            ]
        )
        assert B == pytest.approx(expected)

    def test_rho_zero_is_plain_part(self, rng):
        for _ in range(10):
            prm = random_stable_params(rng)
            prm0 = ardw.ModelParams(p=prm.p, theta=prm.theta, rho=0.0)
            B1, _ = build_B_parts(prm0)
            assert ardw.build_B(prm0) == pytest.approx(B1)

    def test_decomposition(self, rng):
        for _ in range(50):
            prm = random_stable_params(rng)
            B1, B2 = build_B_parts(prm)
            assert ardw.build_B(prm) == pytest.approx(B1 + prm.rho * B2, abs=1e-14)

    def test_defining_residual(self, rng):
        for _ in range(20):
            prm = random_stable_params(rng)
            B = ardw.build_B(prm)
            lam = ardw.solve_lambda(B)
            e = np.zeros(prm.p + 2)
            e[0] = 1.0
            assert np.linalg.norm(B @ lam - e, np.inf) <= 1e-10 * np.linalg.norm(
                lam, np.inf
            )


class TestLambda:
    def test_pure_ar1_closed_form(self):
        lam = ardw.solve_lambda(ardw.build_B(params([0.5], 0.0)))
        assert lam == pytest.approx([4.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0], rel=1e-12)

    def test_against_lyapunov_oracle(self, rng):
        for _ in range(50):
            prm = random_stable_params(rng)
            lam = ardw.solve_lambda(ardw.build_B(prm))
            oracle = ardw.lyapunov_lambda_oracle(prm, prm.p + 1)
            assert np.max(np.abs(lam - oracle)) < 1e-9

    def test_lambda0_positive(self, rng):
        for _ in range(20):
            prm = random_stable_params(rng)
            assert ardw.solve_lambda(ardw.build_B(prm))[0] > 0.0

    def test_ill_conditioned_system_warns(self):
        # cond(B) ~ 2.66e12: past the warning threshold, short of singular
        B = ardw.build_B(params([0.999999999999], 0.0))
        with pytest.warns(RuntimeWarning, match=r"ill-conditioned \(cond ~ 2.66e\+12\)"):
            lam = ardw.solve_lambda(B)
        assert np.isfinite(lam).all()


class TestToeplitz:
    def test_scalar_case(self):
        lam = np.array([2.0, 0.5])
        np.testing.assert_allclose(ardw.toeplitz_delta(lam, 1), [[2.0]])

    def test_ar1_2x2(self):
        lam = ardw.solve_lambda(ardw.build_B(params([0.5], 0.0)))
        expected = np.array([[4.0, 2.0], [2.0, 4.0]]) / 3.0
        assert ardw.toeplitz_delta(lam, 2) == pytest.approx(expected, rel=1e-12)

    def test_positive_definite_random(self, rng):
        for _ in range(30):
            prm = random_stable_params(rng)
            lam = ardw.solve_lambda(ardw.build_B(prm))
            for m in (prm.p, prm.p + 1):
                delta = ardw.toeplitz_delta(lam, m)
                assert np.linalg.eigvalsh(delta)[0] > 0.0

    def test_inconsistent_lambda_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ardw.toeplitz_delta(np.array([1.0, 2.0]), 2)

    def test_order_beyond_lambda_rejected(self):
        with pytest.raises(ValueError, match="need at least 3 autocovariance values, got 2"):
            ardw.toeplitz_delta(np.array([2.0, 0.5]), 3)


@pytest.mark.parametrize("fn, args, match", [
    ("solve_lambda", (np.ones((2, 3)),), r"B must be a non-empty square matrix, got shape \(2, 3\)"),
    ("solve_lambda", (np.ones((0, 0)),), r"B must be a non-empty square matrix, got shape \(0, 0\)"),
    ("solve_lambda", (np.ones(3),), r"B must be a 2-D real array, got shape \(3,\) float64"),
    ("solve_lambda", ([[1.0, 0.0], [0.0, 1.0]],), "B must be a 2-D real array, got list"),
    ("solve_lambda", (np.full((3, 3), np.nan),), "B must contain only finite values"),
    ("toeplitz_delta", (np.array([2.0, 0.5]), 0), "m must be >= 1, got 0"),
    ("toeplitz_delta", (np.array([2.0, 0.5]), -1), "m must be >= 1, got -1"),
    ("toeplitz_delta", (np.array([2.0, 0.5]), 1.5), "m must be an integer, got 1.5"),
    ("toeplitz_delta", (np.eye(2), 2), r"lam must be a 1-D real array, got shape \(2, 2\)"),
    ("toeplitz_delta", (np.array([2.0, np.nan]), 2), "lam must contain only finite values"),
    ("lyapunov_lambda_oracle", (ardw.ModelParams(p=1, theta=[0.5], rho=0.2), 5.5),
     "max_lag must be an integer, got 5.5"),
], ids=["B_2x3", "B_empty", "B_1d", "B_list", "B_nan",
        "m_0", "m_negative", "m_float", "lam_2d", "lam_nan", "max_lag_float"])
def test_bad_input_raises_value_error_before_lapack(fn, args, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            getattr(ardw, fn)(*args)


class TestGufuncs:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_each_has_the_bits_of_its_np_linalg_twin(self, m):
        # a zero matrix has cond inf, with no warning from its zero singular value
        rng = np.random.default_rng(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                general = rng.standard_normal((m, m))
                spd = general @ general.T + 1e-3 * np.eye(m)
                b = rng.standard_normal(m)
                for a in (general, spd, np.outer(b, b), np.zeros((m, m))):
                    assert np.float64(lt._cond(a)).tobytes() == np.linalg.cond(a).tobytes()
                for a in (general, spd):
                    assert lt._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
                    assert lt._inv(a).tobytes() == np.linalg.inv(a).tobytes()
                assert lt._eigvalsh(spd).tobytes() == np.linalg.eigvalsh(spd).tobytes()


class TestCompanion:
    def test_p1_rho_zero(self):
        C = ardw.companion_matrix(params([0.5], 0.0))
        np.testing.assert_allclose(C, [[0.5, 0.0], [1.0, 0.0]])
        assert np.max(np.abs(np.linalg.eigvals(C))) == pytest.approx(0.5, abs=1e-10)

    def test_p1_eigenvalues_factor(self):
        # eigenvalues are rho and the AR root theta
        th, rho = 0.6, -0.4
        eig = np.linalg.eigvals(ardw.companion_matrix(params([th], rho)))
        assert sorted(np.real(eig)) == pytest.approx(sorted([rho, th]), abs=1e-12)

    def test_spectral_radius_below_one(self, rng):
        for _ in range(30):
            prm = random_stable_params(rng)
            C = ardw.companion_matrix(prm)
            assert np.max(np.abs(np.linalg.eigvals(C))) < 1.0


class TestLyapunovOracle:
    def test_ar1_closed_form(self):
        lam = ardw.lyapunov_lambda_oracle(params([0.5], 0.0), 2)
        assert lam == pytest.approx([4.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0], rel=1e-12)

    @pytest.mark.parametrize("theta, max_lag", [([0.5], 1), ([0.4, -0.3], 2)])
    def test_max_lag_below_p_plus_1_rejected(self, theta, max_lag):
        with pytest.raises(ValueError, match=f"max_lag must be >= p\\+1 = {len(theta) + 1}"):
            ardw.lyapunov_lambda_oracle(params(theta, 0.2), max_lag)

    def test_iteration_cap_raises_no_convergence(self, monkeypatch):
        # this AR(1) set converges on the 26th iteration; 5 hit the cap
        monkeypatch.setattr(lt, "_ORACLE_ITERATIONS", 5)
        with pytest.raises(NoConvergence, match="stationary covariance iteration hit the cap"):
            ardw.lyapunov_lambda_oracle(params([0.5], 0.3), 2)

    def test_sigma2_free(self):
        a = ardw.lyapunov_lambda_oracle(params([0.4, -0.3], 0.2, sigma2=1.0), 3)
        b = ardw.lyapunov_lambda_oracle(params([0.4, -0.3], 0.2, sigma2=7.0), 3)
        assert a == pytest.approx(b, rel=1e-13)

    def test_linear_recursion_relations(self, rng):
        # lam_d = beta . (lam_{d-1}..lam_{d-p}) - tail * lam_{d-p-1} + delta_d
        for _ in range(20):
            prm = random_stable_params(rng)
            p = prm.p
            lam = ardw.lyapunov_lambda_oracle(prm, p + 1)
            beta = ardw.beta_vector(prm)
            tail = prm.theta[-1] * prm.rho
            for d in range(p + 2):
                lags = np.array([lam[abs(d - i)] for i in range(1, p + 1)])
                rhs = beta @ lags - tail * lam[abs(d - p - 1)] + (1.0 if d == 0 else 0.0)
                assert lam[d] == pytest.approx(rhs, abs=1e-10)


def yule_walker_rho(gamma):
    """(theta_hat, rho_hat) as functions of gamma_0..gamma_{p+1}, complex
    ones included: theta solves the order-p Toeplitz system and rho is the
    lag-one autocorrelation of the residuals a . X, a = (1, -theta)."""
    p = len(gamma) - 2
    i, j = np.ogrid[:p + 1, :p + 1]
    theta = np.linalg.solve(gamma[abs(i - j)][:p, :p], gamma[1:p + 1])
    a = np.concatenate(([1.0], -theta))
    return np.append(theta, a @ gamma[abs(1 + j - i)] @ a / (a @ gamma[abs(i - j)] @ a))


def assert_gamma_is_the_delta_method_of_bartletts_formula(prm, K=3000, h=1e-20):
    # (theta_hat, rho_hat) = g(gamma_hat_0..gamma_hat_{p+1}) up to O(1/n),
    # with g homogeneous of degree 0, so Gamma = G W G' (G the Jacobian of
    # g at the true autocovariances, by complex step; W the second-order
    # part of Bartlett's formula, summed over |k| <= K). The fourth-moment
    # part of W drops out because G . gamma = 0 (Euler's identity).
    m = prm.p + 2
    lam = ardw.lyapunov_lambda_oracle(prm, K + m - 1)
    full = np.concatenate((lam[:0:-1], lam))  # gamma_|k| at k + K + m - 1
    k = np.arange(-K, K + 1) + K + m - 1
    W = np.array([[full[k] @ full[k - i + j] + full[k + j] @ full[k - i]
                   for j in range(m)] for i in range(m)])
    G = np.array([yule_walker_rho(lam[:m] + h * 1j * e).imag / h
                  for e in np.eye(m)]).T
    s = ardw.limit_summary(prm)
    assert np.abs(G @ W @ G.T - s.Gamma).max() <= 1e-7 * np.abs(s.Gamma).max(), prm
    assert np.abs(G @ lam[:m]).max() <= 1e-9 * np.abs(G).max() * lam[0], prm
    return s


class TestGammaOracle:
    def test_gamma_is_the_delta_method_of_bartletts_formula(self):
        rng = np.random.default_rng(11)
        for draw in range(200):
            assert_gamma_is_the_delta_method_of_bartletts_formula(
                random_stable_params(rng, draw % 5 + 1))

    @pytest.mark.parametrize("theta", [[0.5], [0.3, -0.4], [0.2, -0.3, 0.25]],
                             ids=["p1", "p2", "p3"])
    def test_on_gamma_singular_sets(self, theta):
        # theta*_p = 0 exactly when rho = -theta at p = 1, and for p >= 2 when
        # -theta_p rho^2 - (theta_{p-1} + theta_1 theta_p) rho + theta_p = 0,
        # whose roots multiply to -1: one of them lies inside (-1, 1)
        if len(theta) == 1:
            rho = -theta[0]
        else:
            roots = np.roots([-theta[-1], -(theta[-2] + theta[0] * theta[-1]), theta[-1]])
            (rho,) = roots[np.abs(roots) < 1.0].real
        s = assert_gamma_is_the_delta_method_of_bartletts_formula(params(theta, rho))
        assert s.gamma_singular


class TestLimitSummary:
    def test_system_matrix_singular_at_the_unit_root(self):
        # rho one ulp below 1: the system matrix's cond is about 1e16
        with pytest.raises(SingularB, match=r"^system matrix numerically singular \(cond ~ "):
            ardw.limit_summary(params([0.5], 1 - 1e-16))

    def test_p1_theta_star(self):
        s = ardw.limit_summary(params([0.5], 0.3))
        assert s.theta_star[0] == pytest.approx(0.8 / 1.15, rel=1e-14)

    def test_p1_closed_forms_grid(self):
        grid = [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9]
        for th in grid:
            for rho in grid:
                s = ardw.limit_summary(params([th], rho))
                ts = (th + rho) / (1.0 + th * rho)
                sig = (1 - th**2) * (1 - th * rho) * (1 - rho**2) / (1 + th * rho) ** 3
                s2r = (
                    (1 - th * rho)
                    / (1 + th * rho) ** 3
                    * (
                        (th + rho) ** 2 * (1 + th * rho) ** 2
                        + (th * rho) ** 2 * (1 - th**2) * (1 - rho**2)
                    )
                )
                assert s.theta_star[0] == pytest.approx(ts, abs=1e-12)
                assert s.rho_star == pytest.approx(th * rho * ts, abs=1e-12)
                assert s.Sigma_theta[0, 0] == pytest.approx(sig, abs=1e-12)
                assert s.sigma2_rho == pytest.approx(s2r, abs=1e-12)

    def test_rho_zero_reductions(self, rng):
        for _ in range(10):
            prm = random_stable_params(rng)
            prm0 = ardw.ModelParams(p=prm.p, theta=prm.theta, rho=0.0)
            s = ardw.limit_summary(prm0)
            assert s.theta_star == pytest.approx(prm.theta, rel=1e-12)
            assert s.rho_star == 0.0
            assert s.d_star == 2.0
            assert s.Sigma_theta == pytest.approx(np.linalg.inv(s.Delta_p), rel=1e-10)
            # variance of the serial correlation estimate collapses to theta_p^2
            assert s.sigma2_rho == pytest.approx(prm.theta[-1] ** 2, rel=1e-10)

    def test_consistency_relations(self, rng):
        for _ in range(30):
            prm = random_stable_params(rng)
            s = ardw.limit_summary(prm)
            p = prm.p
            J = np.fliplr(np.eye(p))
            assert s.d_star == pytest.approx(2.0 * (1.0 - s.rho_star), rel=1e-14)
            assert s.sigma2_D == pytest.approx(4.0 * s.sigma2_rho, rel=1e-14)
            assert s.Sigma_theta == pytest.approx(s.Sigma_theta.T, abs=1e-12)
            assert s.Sigma_theta == pytest.approx(J @ s.Sigma_theta @ J, abs=1e-12)
            assert s.Delta_p1[:p, :p] == pytest.approx(s.Delta_p)
            # coefficient-vector identity between the Toeplitz matrix and
            # the limiting estimate
            assert s.Delta_p @ s.theta_star == pytest.approx(
                s.Lambda[1 : p + 1], abs=1e-9
            )

    def test_gamma_blocks(self, rng):
        for _ in range(30):
            prm = random_stable_params(rng)
            s = ardw.limit_summary(prm)
            p = prm.p
            J = np.fliplr(np.eye(p))
            e = np.zeros(p)
            e[0] = 1.0
            assert s.Gamma[:p, :p] == pytest.approx(s.Sigma_theta, abs=1e-9)
            off = prm.theta[-1] * prm.rho * (J @ s.Sigma_theta @ e)
            assert s.Gamma[:p, p] == pytest.approx(off, abs=1e-9)

    def test_each_check_runs_once(self, monkeypatch):
        prm = params([0.4, -0.3, 0.2], 0.3)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("check_stability", "beta_vector", "_check_params"):
            monkeypatch.setattr(ardw.limit_theory, name,
                                counted(name, getattr(ardw.limit_theory, name)))
        for name in ("svd", "eigvalsh", "solve", "inv"):
            gufunc = getattr(ardw.limit_theory, f"_{name}")
            monkeypatch.setattr(ardw.limit_theory, f"_{name}", counted(name, gufunc))
        ardw.limit_summary(prm)
        # beta_vector's params check is the only one
        assert sorted(calls) == ["_check_params", "beta_vector", "eigvalsh", "inv", "solve",
                                 "svd"]

    def test_validates_only_at_the_boundary(self, monkeypatch):
        # the cores trust the B and lam that limit_summary built itself
        prm = params([0.4, -0.3, 0.2], 0.3)  # construction checks p
        calls = []
        for name in ("_check_array", "_check_integer"):
            check = getattr(lt, name)
            monkeypatch.setattr(lt, name,
                                lambda *a, _n=name, _f=check: calls.append(_n) or _f(*a))
        ardw.limit_summary(prm)
        assert calls == []
        ardw.toeplitz_delta(ardw.solve_lambda(ardw.build_B(prm)), 3)
        assert calls == ["_check_array", "_check_integer", "_check_array"]

    def test_scalars_are_python_floats_and_bool(self):
        for prm in (params([0.4, -0.3, 0.2], 0.3), params([0.5], -0.5)):
            s = ardw.limit_summary(prm)
            for name in ("alpha", "rho_star", "d_star", "sigma2_rho", "sigma2_D"):
                assert type(getattr(s, name)) is float, name
            assert type(s.gamma_singular) is bool

    def test_returned_arrays_share_nothing_with_the_next_call(self):
        def snapshot(s):
            return {k: v.tobytes() for k, v in vars(s).items() if isinstance(v, np.ndarray)}

        prm = params([0.4, -0.3, 0.2], 0.3)
        want = snapshot(ardw.limit_summary(prm))
        for value in vars(ardw.limit_summary(prm)).values():
            if isinstance(value, np.ndarray):
                value[...] = np.nan
        assert snapshot(ardw.limit_summary(prm)) == want

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_cached_order_arrays_are_read_only(self, m):
        for a in _order_arrays(m):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_companion_matrix_is_derived_on_access(self):
        prm = params([0.4, -0.3, 0.2], 0.3)
        s = ardw.limit_summary(prm)
        assert "C_A" not in vars(s) and "C_A" not in s.to_dict()
        assert s.C_A.tobytes() == ardw.companion_matrix(prm).tobytes()

    def test_gamma_singular_flag(self):
        # theta* last component vanishes exactly when theta = -rho at order 1
        assert ardw.limit_summary(params([0.5], -0.5)).gamma_singular
        assert not ardw.limit_summary(params([0.5], 0.3)).gamma_singular

    def test_golden_bits(self):
        # the JSON and the raw bytes of every matrix on the golden grid,
        # pinned as the code wrote them before limit_summary computed beta once
        grid = golden_grid()
        assert ardw.limit_summary(grid[-1]).gamma_singular
        assert summary_digest(grid) == (
            "2346690224e6c97e632abe54b52bc98d4c80b580c80cefbd8b85090aeea9d20c"
        )

    def test_golden_bits_past_p5(self):
        # the same for orders 6..10, where BLAS may take other kernel paths
        grid = high_order_grid()
        assert sorted({prm.p for prm in grid}) == [6, 7, 8, 9, 10]
        assert summary_digest(grid) == (
            "c692310d3bea1ac9322a911c014c063281da4fae36a1e00bb32446e4e7d16b23"
        )

    def test_public_wrappers_have_the_bits_of_the_cores(self):
        for prm in golden_grid():
            s = ardw.limit_summary(prm)
            assert ardw.solve_lambda(s.B).tobytes() == s.Lambda.tobytes()
            assert ardw.toeplitz_delta(s.Lambda, prm.p + 1).tobytes() == s.Delta_p1.tobytes()
