import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ardw
from ardw.errors import DegenerateResiduals, RowErrors, SingularDesign, SingularToeplitz
from ardw.estimators import _checked_solve, lag_matrix, sample_autocov_toeplitz


def params(theta, rho, sigma2=1.0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return ardw.ModelParams(p=len(theta), theta=theta, rho=rho, sigma2=sigma2)


STANDARD = params([0.4, -0.3], 0.2)


def brute_force_fit(x, p):
    """Spreadsheet-style recomputation of the whole pipeline with plain loops."""
    n = len(x) - 1
    S = np.zeros((p, p))
    rhs = np.zeros(p)

    def phi(j):
        return np.array([x[j - i] if j - i >= 0 else 0.0 for i in range(p)])

    for j in range(n):
        S += np.outer(phi(j), phi(j))
    for k in range(1, n + 1):
        rhs += phi(k - 1) * x[k]
    theta = np.linalg.solve(S, rhs)
    eps = np.array([x[0]] + [x[k] - theta @ phi(k - 1) for k in range(1, n + 1)])
    rho = sum(eps[k] * eps[k - 1] for k in range(1, n + 1)) / sum(
        eps[k - 1] ** 2 for k in range(1, n + 1)
    )
    dw = sum((eps[k] - eps[k - 1]) ** 2 for k in range(1, n + 1)) / sum(e * e for e in eps)
    s2 = (1.0 - rho**2 / theta[-1] ** 2) * sum(e * e for e in eps) / n
    return theta, eps, rho, dw, s2


class TestOlsTheta:
    def test_impulse_response_series(self):
        # single unit innovation at k=1, no serial correlation: the series is
        # the impulse response and the estimate must match the brute-force
        # normal equations exactly
        th = 0.5
        x = np.array([0.0] + [th**k for k in range(12)])
        theta_hat, S = ardw.ols_theta(x, 1)
        bf_theta, *_ = brute_force_fit(x, 1)
        assert theta_hat == pytest.approx(bf_theta, rel=1e-12)
        # finite-sample value is exact here: all lag products line up
        assert theta_hat[0] == pytest.approx(th, rel=1e-10)

    def test_white_noise_no_signal(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20001)
        theta_hat, _ = ardw.ols_theta(x, 1)
        assert abs(theta_hat[0]) < 3.0 / np.sqrt(20000)

    def test_consistency(self):
        limits = ardw.limit_summary(STANDARD)
        traj = ardw.simulate(STANDARD, 10**5, seed=0)
        theta_hat, _ = ardw.ols_theta(traj.x, 2)
        assert np.linalg.norm(theta_hat - limits.theta_star) < 0.01

    def test_singular_design(self):
        with pytest.raises(SingularDesign):
            ardw.ols_theta(np.zeros(10), 1)

    @pytest.mark.parametrize(
        "x, p, message",
        [
            (np.arange(10.0), 0, "p must be >= 1"),
            (np.arange(10.0), -1, "p must be >= 1"),
            (np.array([1.0, 2.0, np.nan, 0.5, 0.3]), 1, "finite"),
            (np.array([1.0, np.inf, 0.2, 0.5, 0.3]), 1, "finite"),
            (np.arange(10.0), True, "p must be an integer"),
            (np.arange(10.0), 1.5, "p must be an integer"),
            (np.arange(10.0), "1", "p must be an integer"),
        ],
        ids=["p_zero", "p_negative", "nan", "inf", "p_bool", "p_float", "p_str"],
    )
    def test_rejects_bad_order_and_non_finite_series(self, x, p, message):
        with pytest.raises(ValueError, match=message):
            ardw.ols_theta(x, p)


KINDS = ("random", "near_singular", "gram", "indefinite", "zero", "nan", "inf")


def gate_matrix(kind: str, m: int, seed: int, log_cond: float) -> np.ndarray:
    """An m x m matrix of the given kind; log_cond sets how close to singular
    the near-singular, Gram and indefinite kinds are."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((m, m))
    if kind == "gram":  # columns that differ by 10**(-log_cond / 2)
        X = rng.standard_normal((m + 3, 1)) + 10 ** (-log_cond / 2) * rng.standard_normal(
            (m + 3, m))
        return X.T @ X
    G = rng.standard_normal((m, m))
    if kind in ("nan", "inf"):
        G[rng.integers(m), rng.integers(m)] = np.nan if kind == "nan" else -np.inf
    if kind in ("random", "nan", "inf"):
        return G
    U, V = np.linalg.qr(G)[0], np.linalg.qr(rng.standard_normal((m, m)))[0]
    s = np.logspace(0, -log_cond, m)
    if kind == "indefinite":
        return U @ np.diag(s * rng.choice([-1.0, 1.0], m)) @ U.T
    return U @ np.diag(s) @ V.T


@st.composite
def gate_blocks(draw):
    """A stack of 1 to 6 matrices of one order from 1 to 6, each of any kind
    and scaled by 10**k, |k| <= 150."""
    m = draw(st.integers(1, 6))
    kinds = st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
                      st.floats(0.0, 20.0), st.integers(-150, 150))
    return np.stack([gate_matrix(kind, m, seed, log_cond) * 10.0**k
                     for kind, seed, log_cond, k in draw(st.lists(kinds, min_size=1,
                                                                  max_size=6))])


def rotated(s):
    """diag(s) turned by a fixed rotation, so it has singular values s."""
    U = np.linalg.qr(np.random.default_rng(5).standard_normal((len(s), len(s))))[0]
    return U @ np.diag(s) @ U.T


class TestGate:
    """_checked_solve clears most matrices by a determinant bound and runs an
    SVD only on the rest; the rows it fails and their messages must be those
    of the SVD gate cond(G) <= 1e14 applied to every matrix."""

    @example(np.stack([np.diag([1.0, 1e-14]), np.diag([1.0, 0.9999999e-14]),
                       np.diag([1.0, 1.0000001e-14])]))
    @example(np.stack([rotated([1.0, 1e-7, 1e-14]), rotated([1.0, 0.5, 0.99e-14]),
                       rotated([1.0, 0.5, 1.01e-14])]))
    @example(np.stack([np.diag([1.0, 1e-12]), rotated([1.0, 1e-12]), np.eye(2) * 5e-324]))
    @example(np.stack([rotated([1e150, 1.0, 1e136]), rotated([1e-150, 1e-158, 1e-164])]))
    @given(gate_blocks())
    def test_screen_matches_svd_gate(self, G):
        finite = np.isfinite(G).all(axis=(-2, -1))[..., None, None]
        cond = np.linalg.cond(np.where(finite, G, 0.0))
        ok = cond <= 1e14
        b = np.ones((*G.shape[:-1], 1))
        errors = RowErrors(len(G))
        z = _checked_solve(G, b, SingularDesign, "design Gram matrix", errors)
        assert np.array_equal(errors.failed, ~ok)
        messages = [f"design Gram matrix singular (cond ~ {c:.3g})" for c in cond]
        for i, g in enumerate(G):
            if ok[i]:
                one = _checked_solve(g, b[i], SingularDesign, "design Gram matrix")
                assert np.array_equal(one, z[i], equal_nan=True)
            else:
                assert str(errors.error(i)) == messages[i]
                with pytest.raises(SingularDesign) as info:
                    _checked_solve(g, b[i], SingularDesign, "design Gram matrix")
                assert str(info.value) == messages[i]
        ok = ok[:, None, None]
        expected = np.where(ok, np.linalg.solve(np.where(ok, G, np.eye(G.shape[-1])), b), np.nan)
        assert np.array_equal(z, expected, equal_nan=True)

    @pytest.mark.parametrize("value, p, message", [
        (0.0, 1, "design Gram matrix singular (cond ~ inf)"),
        (0.0, 3, "design Gram matrix singular (cond ~ inf)"),
        (1e-160, 2, "variance of theta_hat_1 is inf"),
        (1e-160, 3, "variance of theta_hat_1 is nan"),
    ])
    def test_constant_series_message(self, value, p, message):
        with pytest.raises(SingularDesign) as info:
            ardw.fit(np.full(40, value), p)
        assert str(info.value) == message


class TestResiduals:
    def test_zero_estimator(self):
        x = np.array([1.0, 2.0, -1.0])
        np.testing.assert_allclose(ardw.residuals(x, np.array([0.0])), x)

    def test_hand_computation(self):
        np.testing.assert_allclose(
            ardw.residuals(np.array([1.0, 1.0, 1.0]), np.array([1.0])),
            [1.0, 0.0, 0.0],
        )

    def test_reconstruction_identity(self):
        traj = ardw.simulate(STANDARD, 300, seed=2)
        theta_hat, _ = ardw.ols_theta(traj.x, 2)
        eps = ardw.residuals(traj.x, theta_hat)
        L = lag_matrix(traj.x, 2)
        np.testing.assert_allclose(traj.x[1:], L @ theta_hat + eps[1:], atol=1e-12)

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(0, 4), st.integers(6, 200))
    def test_matches_lag_matrix_product(self, seed, p, rows, n):
        # bit for bit x[1:] - L @ theta, for one series (rows = 0) and a block
        rng = np.random.default_rng(seed)
        shape = (rows, n + 1) if rows else (n + 1,)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100)
        theta = rng.uniform(-1.0, 1.0, (*shape[:-1], p))
        eps = ardw.residuals(x, theta)
        want = x[..., 1:] - (lag_matrix(x, p) @ theta[..., None])[..., 0]
        assert eps[..., 0].tobytes() == x[..., 0].tobytes()
        assert eps[..., 1:].tobytes() == want.tobytes()

    def test_peak_is_the_lags_and_their_product(self):
        # in path lengths of 8(n+1) bytes, at p = 3: eps, the three lag
        # columns and L @ theta read 5.00; a temporary difference read 6.00
        n = 200_000
        x = ardw.simulate(params([0.3, -0.2, 0.25], 0.2), n, seed=1).x
        theta = np.array([0.3, -0.2, 0.25])
        tracemalloc.start()
        try:
            ardw.residuals(x, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.2 * 8 * (n + 1)


class TestOlsRho:
    def test_constant_residuals(self):
        assert ardw.ols_rho(np.ones(4)) == pytest.approx(1.0)

    def test_alternating_residuals(self):
        assert ardw.ols_rho(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(-1.0)

    def test_zero_denominator(self):
        with pytest.raises(DegenerateResiduals):
            ardw.ols_rho(np.array([0.0, 0.0, 1.0]))

    def test_consistency(self):
        limits = ardw.limit_summary(STANDARD)
        f = ardw.fit(ardw.simulate(STANDARD, 10**5, seed=3).x, 2)
        assert abs(f.rho_hat - limits.rho_star) < 0.01


class TestSigma2Hat:
    def test_corrected_formula(self):
        x = ardw.simulate(STANDARD, 500, seed=13).x
        f = ardw.fit(x, 2)
        eps = f.residuals
        expected = (1.0 - f.rho_hat**2 / f.theta_hat[-1] ** 2) * (eps @ eps) / f.n
        assert f.sigma2_hat == pytest.approx(expected, rel=1e-14)

    def test_near_zero_theta_p(self):
        # the lag-1 products of an alternating 0/1 series vanish, so theta_hat = 0
        f = ardw.fit(np.array([1.0, 0.0, 1.0, 0.0, 1.0]), 1)
        assert f.theta_hat[0] == 0.0
        assert np.isnan(f.sigma2_hat)
        assert "near_zero_theta_p" in f.warnings

    def test_consistency(self):
        prm = params([0.5], 0.3, sigma2=2.0)
        f = ardw.fit(ardw.simulate(prm, 10**5, seed=4).x, 1)
        assert f.sigma2_hat == pytest.approx(2.0, rel=0.02)


class TestDurbinWatson:
    def test_alternating(self):
        assert ardw.dw_statistic(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(3.0)

    def test_constant(self):
        assert ardw.dw_statistic(np.full(6, 2.5)) == 0.0

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = ardw.dw_statistic(rng.standard_normal(50))
            assert 0.0 <= d <= 4.0

    def test_consistency(self):
        limits = ardw.limit_summary(STANDARD)
        f = ardw.fit(ardw.simulate(STANDARD, 10**5, seed=6).x, 2)
        assert abs(f.dw - limits.d_star) < 0.02

    def test_affine_link_to_rho(self):
        # D = 2(1 - rho_hat) up to edge terms of order 1/n
        for n in (500, 5000, 50000):
            f = ardw.fit(ardw.simulate(STANDARD, n, seed=7).x, 2)
            assert abs(f.dw - 2.0 * (1.0 - f.rho_hat)) <= 20.0 / n


class TestYuleWalker:
    def test_white_noise(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(5001)
        theta_yw, var1 = ardw.yule_walker_fit(x, 1)
        n = len(x) - 1
        assert abs(theta_yw[0]) < 3.0 / np.sqrt(n)
        assert 1.0 - n * var1 == pytest.approx(theta_yw[-1] ** 2, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_variance_identity_arbitrary_series(self, p):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal(rng.integers(30, 300))
            theta_yw, var1 = ardw.yule_walker_fit(x, p)
            n = len(x) - 1
            assert 1.0 - n * var1 - theta_yw[-1] ** 2 == pytest.approx(0.0, abs=1e-10)

    def test_converges_to_ols(self):
        gaps = []
        for n in (10**3, 10**4, 10**5):
            x = ardw.simulate(STANDARD, n, seed=10).x
            theta_yw, _ = ardw.yule_walker_fit(x, 2)
            theta_ols, _ = ardw.ols_theta(x, 2)
            gaps.append(np.linalg.norm(theta_yw - theta_ols))
        assert gaps[0] > gaps[2]
        assert gaps[2] < 1e-3

    def test_singular_toeplitz(self):
        with pytest.raises(SingularToeplitz):
            ardw.yule_walker_fit(np.zeros(10), 2)

    def test_toeplitz_structure(self):
        x = np.arange(1.0, 8.0)
        S, Pi = sample_autocov_toeplitz(x, 3)
        assert S[0, 0] == pytest.approx(x @ x)
        assert S == pytest.approx(S.T)
        assert S[0, 1] == Pi[0]


class TestFit:
    def test_matches_brute_force(self):
        x = np.array([0.3, 1.1, -0.4, 0.9, 0.2, -0.7])
        f = ardw.fit(x, 1)
        theta, eps, rho, dw, s2 = brute_force_fit(x, 1)
        assert f.theta_hat == pytest.approx(theta, rel=1e-12)
        assert f.residuals == pytest.approx(eps, rel=1e-12)
        assert f.rho_hat == pytest.approx(rho, rel=1e-12)
        assert f.dw == pytest.approx(dw, rel=1e-12)
        assert f.sigma2_hat == pytest.approx(s2, rel=1e-12)

    def test_degenerate_series(self):
        with pytest.raises(SingularDesign):
            ardw.fit(np.zeros(8), 2)

    def test_subnormal_gram_matrix(self):
        # cond() does not see scale: this Gram matrix passes the singularity
        # check, but its inverse is not finite
        with pytest.raises(SingularDesign, match="variance of theta_hat_1"):
            ardw.fit(np.array([0.0, 2.12867068e-162, 0.0]), 1)

    def test_composition_matches_components(self):
        x = ardw.simulate(STANDARD, 1000, seed=11).x
        f = ardw.fit(x, 2)
        theta_hat, _ = ardw.ols_theta(x, 2)
        eps = ardw.residuals(x, theta_hat)
        assert f.theta_hat == pytest.approx(theta_hat)
        assert f.residuals == pytest.approx(eps)
        assert f.rho_hat == pytest.approx(ardw.ols_rho(eps))
        assert f.dw == pytest.approx(ardw.dw_statistic(eps))

    def test_negative_sigma2_flagged_not_clamped(self):
        # short series where the correction factor goes negative: the value
        # is reported as-is with a warning, never clamped
        x = np.array(
            [
                -0.21263692237563345, -0.10743695028706801, 0.16598764260224785,
                0.15240498573185687, 0.41141756055910156, -0.14921443709917556,
                -0.7865950710834381, -0.5911080697007036, 0.16209670387108766,
                1.3806785645568802,
            ]
        )
        f = ardw.fit(x, 1)
        assert f.sigma2_hat < 0.0
        assert "negative_sigma2_hat" in f.warnings

    def test_json_round_trip(self):
        import json

        f = ardw.fit(ardw.simulate(STANDARD, 200, seed=12).x, 2)
        data = json.loads(json.dumps(f.to_dict()))
        assert data["theta_hat"] == pytest.approx(f.theta_hat.tolist())
        assert data["dw"] == pytest.approx(f.dw)


class TestConsistencySweep:
    SETS = (
        params([0.5], 0.0),
        params([0.5], 0.5),
        params([0.4, -0.3], 0.2),
        params([0.4, -0.3], -0.5),
        params([0.3, -0.2, 0.25], 0.2),
    )

    @pytest.mark.parametrize("prm", SETS, ids=range(len(SETS)))
    def test_errors_shrink(self, prm):
        limits = ardw.limit_summary(prm)
        errs = []
        for n in (10**3, 10**4, 10**5):
            f = ardw.fit(ardw.simulate(prm, n, seed=123).x, prm.p)
            errs.append(
                (
                    np.linalg.norm(f.theta_hat - limits.theta_star),
                    abs(f.rho_hat - limits.rho_star),
                    abs(f.dw - limits.d_star),
                )
            )
        for i in range(3):
            assert errs[2][i] < 0.02
            assert errs[2][i] < errs[0][i] + 0.005

    def test_lil_rate_band(self):
        # n * ||error||^2 / (2 log log n) stays within a loose multiple of
        # the asymptotic trace along growing n, across seeds
        prm = params([0.5], 0.3)
        limits = ardw.limit_summary(prm)
        bound = 3.0 * np.trace(limits.Sigma_theta)
        for seed in range(10):
            for n in (10**3, 10**4, 10**5):
                f = ardw.fit(ardw.simulate(prm, n, seed=seed).x, 1)
                err2 = np.sum((f.theta_hat - limits.theta_star) ** 2)
                assert n * err2 / (2.0 * np.log(np.log(n))) <= bound
