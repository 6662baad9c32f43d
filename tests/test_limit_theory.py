import hashlib

import numpy as np
import pytest

import ardw
from ardw.errors import (
    BadVariance,
    NotPositiveDefinite,
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
        ],
        ids=["unstable_theta", "unstable_rho", "zero_theta", "bad_variance", "nan",
             "inf_variance", "p_bool", "p_float", "p_string", "theta_shorter_than_p",
             "theta_matrix"],
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
        ("sigma2", None), ("sigma2", "2"), ("sigma2", True),
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
        assert ardw.alpha_scalar(params([0.5, 0.2], 0.0)) == 1.0

    def test_alpha_p1(self):
        assert ardw.alpha_scalar(params([0.5], 0.3)) == pytest.approx(
            1.0 / (1.0 - 0.0225), rel=1e-14
        )

    def test_alpha_p2(self):
        assert ardw.alpha_scalar(params([0.4, -0.3], 0.2)) == pytest.approx(
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


class TestGammaOracle:
    def test_gamma_is_the_delta_method_of_bartletts_formula(self):
        # (theta_hat, rho_hat) = g(gamma_hat_0..gamma_hat_{p+1}) up to O(1/n),
        # with g homogeneous of degree 0, so Gamma = G W G' (G the Jacobian of
        # g at the true autocovariances, by complex step; W the second-order
        # part of Bartlett's formula, summed over |k| <= K). The fourth-moment
        # part of W drops out because G . gamma = 0 (Euler's identity).
        rng, K, h = np.random.default_rng(11), 3000, 1e-20
        for draw in range(200):
            prm = random_stable_params(rng, draw % 5 + 1)
            m = prm.p + 2
            lam = ardw.lyapunov_lambda_oracle(prm, K + m - 1)
            full = np.concatenate((lam[:0:-1], lam))  # gamma_|k| at k + K + m - 1
            k = np.arange(-K, K + 1) + K + m - 1
            W = np.array([[full[k] @ full[k - i + j] + full[k + j] @ full[k - i]
                           for j in range(m)] for i in range(m)])
            G = np.array([yule_walker_rho(lam[:m] + h * 1j * e).imag / h
                          for e in np.eye(m)]).T
            gamma = ardw.limit_summary(prm).Gamma
            assert np.abs(G @ W @ G.T - gamma).max() <= 1e-7 * np.abs(gamma).max(), prm
            assert np.abs(G @ lam[:m]).max() <= 1e-9 * np.abs(G).max() * lam[0], prm


class TestLimitSummary:
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

        monkeypatch.setattr(ardw.limit_theory, "check_stability",
                            counted("check_stability", ardw.check_stability))
        monkeypatch.setattr(ardw.limit_theory, "beta_vector",
                            counted("beta_vector", ardw.beta_vector))
        for name in ("cond", "eigvalsh", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        ardw.limit_summary(prm)
        assert sorted(calls) == ["beta_vector", "cond", "eigvalsh", "inv", "solve"]

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
        # 300 seeded stable sets, 60 for each p in 1..5, and a gamma_singular
        # one: the JSON and the raw bytes of every matrix, pinned as the code
        # wrote them before limit_summary computed beta once
        rng = np.random.default_rng(1871)
        grid = [random_stable_params(rng, p) for p in range(1, 6) for _ in range(60)]
        grid.append(params([0.5], -0.5))
        h = hashlib.sha256()
        for prm in grid:
            s = ardw.limit_summary(prm)
            h.update(json_text(s.to_dict()).encode())
            for a in (s.B, s.Delta_p, s.Delta_p1, s.P, s.C_A, s.Sigma_theta, s.Gamma):
                h.update(a.tobytes())
        assert s.gamma_singular
        assert h.hexdigest() == (
            "2346690224e6c97e632abe54b52bc98d4c80b580c80cefbd8b85090aeea9d20c"
        )
