import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

import ardw
from ardw.errors import SERIES, DegenerateResiduals, RowErrors, SingularDesign, SingularToeplitz
from ardw.estimators import _checked_solve, _dot, lag_matrix


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


def numpy_fit(x, p):
    """theta_hat, the residuals, rho_hat and the Durbin-Watson ratio of one
    series, each written out with numpy's own solve, matmul and 1-D dot."""
    L = lag_matrix(x, p)
    theta = np.linalg.solve(L.T @ L, L.T @ x[1:, None])[:, 0]
    eps = np.concatenate((x[:1], x[1:] - (L @ theta[:, None])[:, 0]))
    d = np.diff(eps)
    rho = float(eps[1:] @ eps[:-1]) / float(eps[:-1] @ eps[:-1])
    return theta, eps, rho, float(d @ d) / float(eps @ eps)


class TestOlsTheta:
    """fit's least squares theta_hat."""

    def test_impulse_response_series(self):
        # single unit innovation at k=1, no serial correlation: the series is
        # the impulse response and the estimate must match the brute-force
        # normal equations exactly
        th = 0.5
        x = np.array([0.0] + [th**k for k in range(12)])
        theta_hat = ardw.fit(x, 1).theta_hat
        bf_theta, *_ = brute_force_fit(x, 1)
        assert theta_hat == pytest.approx(bf_theta, rel=1e-12)
        # finite-sample value is exact here: all lag products line up
        assert theta_hat[0] == pytest.approx(th, rel=1e-10)

    def test_white_noise_no_signal(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20001)
        theta_hat = ardw.fit(x, 1).theta_hat
        assert abs(theta_hat[0]) < 3.0 / np.sqrt(20000)

    def test_consistency(self):
        limits = ardw.limit_summary(STANDARD)
        traj = ardw.simulate(STANDARD, 10**5, seed=0)
        theta_hat = ardw.fit(traj.x, 2).theta_hat
        assert np.linalg.norm(theta_hat - limits.theta_star) < 0.01

    def test_singular_design(self):
        with pytest.raises(SingularDesign):
            ardw.fit(np.zeros(10), 1)

    @pytest.mark.parametrize(
        "x, p, message",
        [
            (np.arange(10.0), 0, "p must be >= 1"),
            (np.arange(10.0), -1, "p must be >= 1"),
            (np.array([1.0, 2.0, np.nan, 0.5, 0.3]), 1, "finite"),
            (np.array([1.0, np.inf, 0.2, 0.5, 0.3]), 1, "finite"),
            (np.array([1.0, 1e200, 0.2, 0.5, 0.3]), 1, "finite values below 1e150"),
            (np.arange(10.0), True, "p must be an integer"),
            (np.arange(10.0), 1.5, "p must be an integer"),
            (np.arange(10.0), "1", "p must be an integer"),
            (np.float64(1.0), 1, r"x must have shape \(n\+1\), got \(\)"),
            (np.zeros((2, 50)), 1, r"x must have shape \(n\+1\), got \(2, 50\)"),
            (np.zeros((2, 2, 50)), 1, r"x must have shape \(n\+1\), got \(2, 2, 50\)"),
        ],
        ids=["p_zero", "p_negative", "nan", "inf", "huge", "p_bool", "p_float", "p_str", "scalar",
             "block_without_errors", "three_d"],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_order_and_non_finite_series(self, x, p, message):
        # yule_walker_fit checks p, the shape and the values as fit does,
        # before any arithmetic that could warn
        for call in (ardw.fit, ardw.yule_walker_fit):
            with pytest.raises(ValueError, match=message):
                call(x, p)


@pytest.mark.parametrize("bad", [
    np.ones(10) * 1j, [1j] * 10, np.ones(10, dtype=np.complex64), [{"a": 1}] * 10,
    np.array([object()] * 10), ["one"] * 10, [10**400] * 10, [2**70] * 10, ["0.5"] * 10,
    [True] * 10, np.ones(10, dtype=bool), None, [[0.5], [0.5, 0.5]],
], ids=["complex_array", "complex_list", "complex64", "dicts", "objects", "strings",
        "huge_ints", "ints_past_uint64", "numeric_strings", "bools", "bool_array", "none",
        "ragged"])
def test_values_must_be_real_numbers(bad):
    # numpy casts a complex array to its real part with a warning only
    f = ardw.fit(np.arange(10.0) % 3, 1)
    for name, call in (("x", lambda: ardw.fit(bad, 1)),
                       ("x", lambda: ardw.yule_walker_fit(bad, 1)),
                       ("x", lambda: ardw.run_tests(bad, f)),
                       ("theta", lambda: ardw.ModelParams(p=10, theta=bad, rho=0.1))):
        with pytest.raises(ValueError, match=f"^{name} must hold real numbers, got "):
            call()


def test_real_inputs_keep_their_bits():
    # ints read as numpy's float conversion does, and so does a list numpy
    # reads as ints though it holds a bool; numeric strings and bools raise
    x = [1, 0, 2, True, 1, 3, 0, 2]
    want = ardw.fit(np.array(x, dtype=float), 1)
    for same in (x, np.array(x, dtype=np.uint64), np.array(x, dtype=np.int8)):
        assert ardw.fit(same, 1).to_dict() == want.to_dict()
    assert ardw.ModelParams(p=2, theta=[0.25, 0], rho=0.1).theta.tolist() == [0.25, 0.0]
    for bad in ([str(v) for v in np.array(x, dtype=float)], [True, False] * 4):
        with pytest.raises(ValueError, match="^x must hold real numbers, got "):
            ardw.fit(bad, 1)
    with pytest.raises(ValueError, match="^theta must hold real numbers, got "):
        ardw.ModelParams(p=2, theta=["0.25", 0], rho=0.1)


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
    """fit's residuals, X_0 first."""

    def test_zero_estimator(self):
        # the lag-1 products of an alternating 0/1 series vanish, so
        # theta_hat = 0 and the residuals are the series
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        f = ardw.fit(x, 1)
        assert f.theta_hat[0] == 0.0
        np.testing.assert_allclose(f.residuals, x)

    def test_hand_computation(self):
        # a constant series: theta_hat = 1, so X_0 is the only residual
        np.testing.assert_allclose(ardw.fit(np.ones(3), 1).residuals, [1.0, 0.0, 0.0])

    def test_reconstruction_identity(self):
        traj = ardw.simulate(STANDARD, 300, seed=2)
        f = ardw.fit(traj.x, 2)
        L = lag_matrix(traj.x, 2)
        np.testing.assert_allclose(traj.x[1:], L @ f.theta_hat + f.residuals[1:], atol=1e-12)

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(0, 4), st.integers(6, 200))
    def test_matches_lag_matrix_product(self, seed, p, rows, n):
        # bit for bit x[1:] - L @ theta_hat, for one series (rows = 0) and
        # each row of a block that fits
        rng = np.random.default_rng(seed)
        shape = (rows, n + 1) if rows else (n + 1,)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100)
        errors = RowErrors(rows) if rows else SERIES
        f = ardw.fit(x, p, errors)
        for xi, theta, eps, failed in zip(x.reshape(-1, n + 1), f.theta_hat.reshape(-1, p),
                                          f.residuals.reshape(-1, n + 1),
                                          errors.failed.reshape(-1)):
            if not failed:
                want = xi[1:] - (lag_matrix(xi, p) @ theta[:, None])[:, 0]
                assert eps[0].tobytes() == xi[0].tobytes()
                assert eps[1:].tobytes() == want.tobytes()


def zero_filled_lag_matrix(x, p, column=None):
    """The reference lag matrix: zeros, each lag column written over them,
    then the extra column if given."""
    n = x.shape[-1] - 1
    L = np.zeros((*x.shape[:-1], n, p + (column is not None)))
    for i in range(min(p, n)):
        L[..., i:, i] = x[..., : n - i]
    if column is not None:
        L[..., p] = column
    return L


class TestLagMatrix:
    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("extra", [False, True], ids=["lags", "lags_and_column"])
    @pytest.mark.parametrize("rows", [0, 3], ids=["series", "block"])
    def test_bytes_equal_the_zero_filled_reference(self, p, extra, rows):
        # the pre-sample triangle alone is zero-filled; every entry, and the
        # layout, is the reference's, on series longer and shorter than p
        rng = np.random.default_rng(p)
        for length in (1, 2, 3, p, p + 1, p + 2, 60):
            x = rng.standard_normal((rows, length) if rows else length)
            column = rng.standard_normal((*x.shape[:-1], length - 1)) if extra else None
            got, want = lag_matrix(x, p, column), zero_filled_lag_matrix(x, p, column)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def operand(rng, shape, strided):
    """Gaussian entries of mixed scale, with +0.0 and -0.0 among them; if
    strided, a view with a stride of 3 entries along the last axis."""
    full = rng.standard_normal((*shape, 3)) * np.exp(rng.uniform(-5.0, 5.0, (*shape, 3)))
    full[rng.random(full.shape) < 0.1] = 0.0
    full[rng.random(full.shape) < 0.1] = -0.0
    return full[..., 0] if strided else np.ascontiguousarray(full[..., 0])


class TestDot:
    @given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 50),
           st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    @example(1, 4, 200, (True, False))  # 4 terms, one operand strided
    @example(2, 1, 50, (False, False))  # one term: the product, +0 for -0
    def test_rows_have_the_bits_of_a_1d_matmul(self, seed, terms, rows, strided):
        # every row of _dot(a, b), for one series (rows = 0) and a block,
        # strided or not, is what a 1-D `a_i @ b_i` of contiguous copies
        # gives, whose BLAS ddot sums from +0 by fused multiply-adds
        rng = np.random.default_rng(seed)
        shape = (rows, terms) if rows else (terms,)
        a, b = (operand(rng, shape, s) for s in strided)
        got = np.asarray(_dot(a, b))
        want = [np.ascontiguousarray(ai) @ np.ascontiguousarray(bi)
                for ai, bi in zip(a.reshape(-1, terms), b.reshape(-1, terms))]
        assert got.tobytes() == np.array(want).tobytes()


class TestOlsRho:
    """fit's rho_hat, the lag-1 least squares coefficient of the residuals."""

    def test_constant_residuals(self):
        # theta_hat = -2 leaves the residuals 1, 1, 1
        f = ardw.fit(np.array([1.0, -1.0, 3.0]), 1)
        assert f.residuals.tolist() == [1.0, 1.0, 1.0]
        assert f.rho_hat == 1.0

    def test_alternating_residuals(self):
        # theta_hat = 2 leaves the residuals 1, -1, 1
        f = ardw.fit(np.array([1.0, 1.0, 3.0]), 1)
        assert f.residuals.tolist() == [1.0, -1.0, 1.0]
        assert f.rho_hat == -1.0

    def test_zero_denominator(self):
        # the Gram matrix is subnormal, and the lagged residuals square to zero
        with pytest.raises(DegenerateResiduals, match="^zero energy in lagged residuals$"):
            ardw.fit(np.array([1e-170, 1e-160, 1e-150]), 1)

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
        # residuals 1, -1, 1 (see TestOlsRho): 8 / 3
        assert ardw.fit(np.array([1.0, 1.0, 3.0]), 1).dw == 8.0 / 3.0
        # residuals 1, 0, 1, 0, 1 (see TestResiduals): 4 / 3
        assert ardw.fit(np.array([1.0, 0.0, 1.0, 0.0, 1.0]), 1).dw == 4.0 / 3.0

    def test_constant(self):
        # residuals 1, 1, 1 (see TestOlsRho)
        assert ardw.fit(np.array([1.0, -1.0, 3.0]), 1).dw == 0.0

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = ardw.fit(rng.standard_normal(50), 1)
            eps = f.residuals
            d = eps[1:] - eps[:-1]
            assert f.dw == float(d @ d) / float(eps @ eps)
            assert 0.0 <= f.dw <= 4.0

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
            theta_ols = ardw.fit(x, 2).theta_hat
            gaps.append(np.linalg.norm(theta_yw - theta_ols))
        assert gaps[0] > gaps[2]
        assert gaps[2] < 1e-3

    def test_singular_toeplitz(self):
        with pytest.raises(SingularToeplitz):
            ardw.yule_walker_fit(np.zeros(10), 2)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_estimate_solves_the_toeplitz_system(self, p):
        # the Toeplitz system of the raw lag sums s_0..s_p, built and solved
        # here, gives the estimate and its variance bit for bit
        x = np.random.default_rng(12).standard_normal(60)
        n = len(x) - 1
        s = np.array([np.dot(x[h:], x[: n + 1 - h]) for h in range(p + 1)])
        T = scipy.linalg.toeplitz(s[:p])
        theta = np.linalg.solve(T, s[1:])
        var1 = (s[0] - s[1:] @ theta) / n * np.linalg.inv(T)[0, 0]
        theta_yw, var_theta1 = ardw.yule_walker_fit(x, p)
        assert theta_yw.tobytes() == theta.tobytes()
        assert var_theta1 == var1

    @pytest.mark.parametrize("length, p", [(4, 3), (2, 3), (0, 1)])
    def test_series_shorter_than_p_plus_2(self, length, p):
        # the SingularDesign that fit raises for the same series
        x, message = np.ones(length), rf"^series length {length} < p\+2 = {p + 2}$"
        for call in (ardw.yule_walker_fit, ardw.fit):
            with pytest.raises(SingularDesign, match=message):
                call(x, p)


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

    def test_x_must_hold_one_series_per_row_of_errors(self):
        with pytest.raises(ValueError, match=r"^x must have shape \(2, n\+1\), got \(50,\)$"):
            ardw.fit(np.zeros(50), 1, RowErrors(2))

    def test_subnormal_gram_matrix(self):
        # cond() does not see scale: this Gram matrix passes the singularity
        # check, but its inverse is not finite
        with pytest.raises(SingularDesign, match="variance of theta_hat_1"):
            ardw.fit(np.array([0.0, 2.12867068e-162, 0.0]), 1)

    def test_composition_matches_components(self):
        x = ardw.simulate(STANDARD, 1000, seed=11).x
        f = ardw.fit(x, 2)
        theta_hat, eps, rho, dw = numpy_fit(x, 2)
        assert f.theta_hat == pytest.approx(theta_hat)
        assert f.residuals == pytest.approx(eps)
        assert f.rho_hat == pytest.approx(rho)
        assert f.dw == pytest.approx(dw)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [0, 7], ids=["series", "block"])
    def test_values_have_the_bits_of_the_public_steps(self, p, rows):
        # fit forms its residuals from the lag matrix theta_hat was solved
        # from and one eps . eps for dw and sigma2_hat: the same bits as
        # each step written out in numpy (numpy_fit), row by row
        prm = ardw.DEFAULT_SUITE[-1] if p == 3 else params([0.3] + [0.1] * (p - 1), 0.2)
        seeds = range(rows) if rows else [0]
        x = np.stack([ardw.simulate(prm, 400, seed=s).x for s in seeds])
        if not rows:
            x = x[0]
        errors = RowErrors(rows) if rows else SERIES
        f = ardw.fit(x, p, errors)
        assert not np.any(errors.failed)
        steps = [numpy_fit(xi, p) for xi in x.reshape(-1, 401)]
        theta_hat = np.stack([theta for theta, _, _, _ in steps]).reshape(f.theta_hat.shape)
        eps = np.stack([e for _, e, _, _ in steps]).reshape(x.shape)
        rho = np.array([r for _, _, r, _ in steps]).reshape(np.shape(f.rho_hat))
        dw = np.array([d for _, _, _, d in steps]).reshape(np.shape(f.dw))
        assert f.theta_hat.tobytes() == theta_hat.tobytes()
        assert f.residuals.tobytes() == eps.tobytes()
        assert np.asarray(f.rho_hat).tobytes() == rho.tobytes()
        assert np.asarray(f.dw).tobytes() == dw.tobytes()
        tp = theta_hat[..., -1]
        s2 = (1.0 - rho * rho / (tp * tp)) * (_dot(eps, eps) / 400)
        assert np.asarray(f.sigma2_hat).tobytes() == np.asarray(s2).tobytes()

    def test_block_row_that_fails_keeps_the_others(self):
        # the residuals of a failed row come from its NaN estimate; the
        # other rows are fitted as alone
        x = np.stack([np.zeros(101), ardw.simulate(STANDARD, 100, seed=4).x])
        errors = RowErrors(2)
        f = ardw.fit(x, 2, errors)
        assert errors.failed.tolist() == [True, False]
        assert np.isnan(f.theta_hat[0]).all()
        assert f.residuals[1].tobytes() == ardw.fit(x[1], 2).residuals.tobytes()

    def test_peak_is_the_lags_their_product_and_eps(self):
        # per step at p = 3: the three lag columns, L @ theta_hat and the
        # residuals, 40 B; the lag matrix is built once. With a one-series
        # run_tests on the result: the 8 B of the residuals kept and
        # Breusch-Godfrey's four columns, 40 B
        n = 100_000
        x = ardw.simulate(params([0.3, -0.2, 0.25], 0.2), n, seed=1).x
        for call, per_step in ((lambda: ardw.fit(x, 3), 40),
                               (lambda: ardw.run_tests(x, ardw.fit(x, 3)), 40)):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= per_step * n + 32 * 1024

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
