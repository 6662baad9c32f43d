import re

import numpy as np
import pytest
import scipy.stats

import ardw
from ardw.errors import (
    DegenerateResiduals, DomainError, InapplicableH, NearZeroThetaP, RowErrors,
)
from ardw.estimators import FitResult, _dot, lag_matrix
from ardw.montecarlo import StudyConfig
from ardw.serial_tests import (
    TEST_NAMES,
    chi2_quantile,
    chi2_sf,
    durbin_h_test,
    dw_chi2_test,
    normal_sf,
    outcome_masks,
    run_tests,
)


def params(theta, rho, sigma2=1.0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return ardw.ModelParams(p=len(theta), theta=theta, rho=rho, sigma2=sigma2)


def make_fit(n=100, theta_hat=(0.5,), rho_hat=0.1, dw=2.0, var_theta1=0.001,
             residuals=None, warnings=()):
    """Hand-assembled fit record for statistic-level unit tests."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    p = len(theta_hat)
    if residuals is None:
        residuals = np.ones(n + 1)
    return FitResult(
        p=p, n=n, theta_hat=theta_hat, residuals=np.asarray(residuals, float),
        rho_hat=rho_hat, sigma2_hat=1.0, dw=dw, var_theta1_hat=var_theta1,
        warnings=tuple(warnings),
    )


def portmanteau(eps):
    """The Box-Pierce and Ljung-Box outcomes on a hand-made residual series."""
    f = make_fit(n=len(eps) - 1, residuals=eps)
    return run_tests(eps, f, names=("box_pierce", "ljung_box"))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ardw import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ardw.__all__)
    assert all(namespace[name] is getattr(ardw, name) for name in ardw.__all__)
    for name in ("box_pierce_test", "ljung_box_test", "breusch_godfrey_test",
                 "normal_quantile"):
        assert not hasattr(ardw, name) and not hasattr(ardw.serial_tests, name)


class TestDistributionUtilities:
    def test_chi2_quantile_95(self):
        assert chi2_quantile(0.95) == pytest.approx(3.841458820694124, abs=1e-6)

    def test_chi2_sf_against_scipy(self):
        for x in [0.01, 0.5, 1.0, 2.0, 3.84, 7.0, 15.0, 30.0]:
            assert chi2_sf(x) == pytest.approx(scipy.stats.chi2.sf(x, 1), rel=1e-12)

    def test_normal_sf_against_scipy(self):
        for x in [-3.0, -1.0, 0.0, 0.5, 1.96, 4.0]:
            assert normal_sf(x) == pytest.approx(scipy.stats.norm.sf(x), rel=1e-12)

    def test_quantiles_against_scipy(self):
        for q in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999]:
            assert chi2_quantile(q) == pytest.approx(
                scipy.stats.chi2.ppf(q, 1), abs=1e-6
            )

    def test_chi2_quantile_near_one(self):
        for q in (1.0 - 1e-12, np.nextafter(1.0, 0.0)):
            assert chi2_quantile(q) == pytest.approx(
                scipy.stats.chi2.ppf(q, 1), abs=1e-6
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_sf(-1.0)
        with pytest.raises(DomainError):
            chi2_quantile(1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: chi2_quantile("0.5"), "q must be a real number, got '0.5'"),
        (lambda: chi2_quantile(np.array([0.5, 0.9])), "q must be a real number, got array("),
        (lambda: chi2_quantile(10**400), "q must be a real number, got 1000"),
        (lambda: chi2_quantile(2**70), "q must be a real number, got 1180591620717411303424"),
        (lambda: chi2_sf("x"), "statistic must hold real numbers, got 'x'"),
        (lambda: normal_sf(None), "statistic must hold real numbers, got None"),
        (lambda: chi2_sf(10**400), "statistic must hold real numbers, got 1000"),
        (lambda: normal_sf([2**70]),
         "statistic must hold real numbers, got [1180591620717411303424]"),
        (lambda: chi2_sf(["0.5"]), "statistic must hold real numbers, got ['0.5']"),
        (lambda: normal_sf([True]), "statistic must hold real numbers, got [True]"),
        (lambda: ardw.outcomes_to_csv([1]), "outcomes must be a list of TestOutcome, got [1]"),
        (lambda: ardw.outcomes_to_csv(None), "outcomes must be a list of TestOutcome, got None"),
    ], ids=["quantile_str", "quantile_array", "quantile_huge_int", "quantile_int_past_uint64",
            "chi2_sf_str", "normal_sf_none", "chi2_sf_huge_int", "normal_sf_int_past_uint64",
            "chi2_sf_numeric_string_list", "normal_sf_bool_list", "csv_int", "csv_none"])
    def test_malformed_arguments_raise_value_error(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(message)

    def test_tails_take_ints_and_arrays(self):
        x = np.array([0.0, 1.0, 4.0])
        assert chi2_sf(4) == chi2_sf(4.0)
        assert chi2_sf(x).tobytes() == np.array([chi2_sf(v) for v in x]).tobytes()
        assert normal_sf(-x).tobytes() == np.array([normal_sf(-v) for v in x]).tobytes()


class TestDwChi2:
    def test_hand_value(self):
        # n (D-2)^2 / (4 tp^2) = 100 * 0.16 / 1 = 16
        f = make_fit(n=100, theta_hat=[0.5], dw=2.4, var_theta1=0.0)
        out = dw_chi2_test(f)
        assert out.statistic == pytest.approx(16.0, rel=1e-12)
        assert out.p_value == pytest.approx(chi2_sf(16.0), rel=1e-12)
        assert out.reject

    def test_null_like_value_accepts(self):
        f = make_fit(n=100, theta_hat=[0.5], dw=2.02, var_theta1=0.0)
        out = dw_chi2_test(f)
        assert not out.reject

    def test_near_zero_theta_p_raises(self):
        with pytest.raises(NearZeroThetaP):
            dw_chi2_test(make_fit(theta_hat=[1e-13]))

    def test_insignificant_theta_p_warns(self):
        # |tp| = 0.05 < 2 * sqrt(0.01) = 0.2
        out = dw_chi2_test(make_fit(theta_hat=[0.05], var_theta1=0.01))
        assert "theta_p_possibly_insignificant" in out.warnings

    def test_fit_warnings_propagate(self):
        out = dw_chi2_test(make_fit(var_theta1=0.0, warnings=("negative_sigma2_hat",)))
        assert "negative_sigma2_hat" in out.warnings


class TestDurbinH:
    def test_hand_value(self):
        f = make_fit(n=100, rho_hat=0.2, var_theta1=0.004)
        out = durbin_h_test(f)
        expected = 0.2 * np.sqrt(100.0 / (1.0 - 0.4))
        assert out.statistic == pytest.approx(expected, rel=1e-12)
        assert out.p_value == pytest.approx(2.0 * normal_sf(expected), rel=1e-12)

    def test_two_sided(self):
        a = durbin_h_test(make_fit(rho_hat=0.2, var_theta1=0.004))
        b = durbin_h_test(make_fit(rho_hat=-0.2, var_theta1=0.004))
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_inapplicable_when_radicand_nonpositive(self):
        with pytest.raises(InapplicableH):
            durbin_h_test(make_fit(n=100, var_theta1=0.02))


class TestPortmanteau:
    def test_hand_values(self):
        eps = np.array([1.0, 2.0, 3.0, 4.0])
        # r1 = 20/30, n = 4
        bp, lb = portmanteau(eps)
        assert bp.statistic == pytest.approx(4.0 * (2.0 / 3.0) ** 2, rel=1e-12)
        assert lb.statistic == pytest.approx(
            4.0 * 6.0 * (2.0 / 3.0) ** 2 / 3.0, rel=1e-12
        )

    def test_ljung_box_dominates_box_pierce(self, rng):
        for _ in range(10):
            bp, lb = portmanteau(rng.standard_normal(int(rng.integers(10, 200))))
            assert lb.statistic >= bp.statistic

    def test_ratio_shrinks_to_one(self, rng):
        bp, lb = portmanteau(rng.standard_normal(10_000))
        if bp.statistic > 0:
            assert lb.statistic / bp.statistic == pytest.approx(1.0, abs=1e-3)

    def test_zero_residuals_rejected(self):
        for o in portmanteau(np.zeros(10)):
            assert o.warnings == ("inapplicable", DegenerateResiduals.__name__)
            assert np.isnan(o.statistic) and not o.reject
        # a block: each test records the shared zero-energy rows in its own errors
        eps = np.stack([np.zeros(10), np.arange(10.0)])
        masks = outcome_masks(eps, make_fit(n=9, residuals=eps), np.zeros(2, dtype=bool),
                              0.05, ("box_pierce", "ljung_box"))
        assert [m[1].tolist() for m in masks.values()] == [[True, False]] * 2

    def test_r1_squared_is_derived_once_per_fit(self, monkeypatch):
        # both tests read one r1^2, of the sums eps_1..n . eps_0..n-1 and
        # eps . eps as _dot forms them; it is no field, so to_dict is unchanged
        calls = []
        prop = FitResult.__dict__["_r1_squared"]
        func = prop.func
        monkeypatch.setattr(prop, "func", lambda fit: calls.append(fit) or func(fit))
        x = ardw.simulate(params([0.4, -0.3], 0.3), 300, seed=5).x
        f = ardw.fit(x, 2)
        bp, lb = run_tests(x, f, names=("box_pierce", "ljung_box"))
        run_tests(x, f)
        assert calls == [f]
        eps = f.residuals
        r1_squared = np.float_power(_dot(eps[1:], eps[:-1]) / _dot(eps, eps), 2)
        assert bp.statistic == float(301 * r1_squared)
        assert lb.statistic == float(301 * 303.0 * r1_squared / 300.0)
        assert list(f.to_dict()) == ["p", "n", "theta_hat", "rho_hat", "sigma2_hat", "dw",
                                     "var_theta1_hat", "warnings"]
        block = ardw.fit(np.stack([x, x[::-1]]), 2, RowErrors(2))
        outcome_masks(np.stack([x, x[::-1]]), block, np.zeros(2, dtype=bool), 0.05, TEST_NAMES)
        assert calls == [f, block]


class TestBreuschGodfrey:
    def test_matches_lstsq_oracle(self, rng):
        traj = ardw.simulate(params([0.4, -0.3], 0.3), 300, seed=5)
        f = ardw.fit(traj.x, 2)
        (out,) = run_tests(traj.x, f, names=("breusch_godfrey",))
        # independent uncentered R^2 via lstsq
        Z = np.column_stack([lag_matrix(traj.x, 2), f.residuals[:-1]])
        y = f.residuals[1:]
        coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
        yhat = Z @ coef
        r2 = float(yhat @ yhat) / float(y @ y)
        assert out.statistic == pytest.approx(f.n * r2, rel=1e-9)

    def test_detects_correlated_noise(self):
        traj = ardw.simulate(params([0.5], 0.5), 2000, seed=3)
        (out,) = run_tests(traj.x, ardw.fit(traj.x, 1), names=("breusch_godfrey",))
        assert out.reject


class TestRunTests:
    def test_all_names_in_order(self):
        traj = ardw.simulate(params([0.5], 0.0), 500, seed=11)
        outcomes = run_tests(traj.x, ardw.fit(traj.x, 1))
        assert tuple(o.name for o in outcomes) == TEST_NAMES

    def test_inapplicable_reported_not_raised(self):
        # forces the h-test radicand negative through a crafted fit record
        traj = ardw.simulate(params([0.5], 0.0), 500, seed=11)
        f0 = ardw.fit(traj.x, 1)
        f = FitResult(
            p=1, n=f0.n, theta_hat=f0.theta_hat, residuals=f0.residuals,
            rho_hat=f0.rho_hat, sigma2_hat=f0.sigma2_hat, dw=f0.dw, var_theta1_hat=1.0,
        )
        outcomes = run_tests(traj.x, f, names=("durbin_h",))
        assert len(outcomes) == 1
        o = outcomes[0]
        assert "inapplicable" in o.warnings
        assert "InapplicableH" in o.warnings
        assert not o.reject
        assert np.isnan(o.statistic)

    def test_singular_auxiliary_regression_inapplicable(self):
        # theta_hat = 0 makes the residuals equal the series, so the lagged
        # residual column repeats the lag column of the auxiliary regression
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        outcomes = run_tests(x, ardw.fit(x, 1), names=("breusch_godfrey",))
        assert len(outcomes) == 1
        o = outcomes[0]
        assert o.warnings == ("inapplicable", "SingularAuxiliaryRegression")
        assert not o.reject
        assert np.isnan(o.p_value)

    def test_unknown_name_raises_before_any_test(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            ardw.serial_tests._TESTS, "dw_chi2", lambda *args: calls.append(args)
        )
        with pytest.raises(ValueError, match="unknown test 'no_such_test'"):
            run_tests(np.ones(101), make_fit(), names=("dw_chi2", "no_such_test"))
        assert calls == []

    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.05, float("nan")])
    def test_level_outside_unit_interval(self, level):
        f = make_fit(var_theta1=0.0)
        for call in (lambda: run_tests(np.ones(101), f, level=level),
                     lambda: run_tests(np.ones(101), f, level=level, names=()),
                     lambda: dw_chi2_test(f, level),
                     lambda: durbin_h_test(f, level)):
            with pytest.raises(ValueError, match=r"level must be in \(0, 1\), got"):
                call()

    @pytest.mark.parametrize("level", ["0.05", None, True, np.array([0.05]), 10**400, 2**70,
                                       ["0.05"], [True]])
    def test_non_real_level(self, level):
        f = make_fit(var_theta1=0.0)
        for call in (lambda: run_tests(np.ones(101), f, level=level),
                     lambda: dw_chi2_test(f, level),
                     lambda: durbin_h_test(f, level),
                     lambda: StudyConfig(params_list=(), n_list=(100,), level=level)):
            with pytest.raises(ValueError, match="level must be a real number, got"):
                call()

    def test_level_stored_as_float(self):
        f = make_fit(var_theta1=0.0)
        outcomes = [*run_tests(np.ones(101), f, level=np.float32(0.25), names=("dw_chi2",)),
                    dw_chi2_test(f, np.float32(0.25))]
        assert all(type(o.level) is float and o.level == 0.25 for o in outcomes)
        config = StudyConfig(params_list=(), n_list=(100,), level=np.float32(0.25))
        assert type(config.level) is float and config.level == 0.25

    @pytest.mark.parametrize("names", ["dw_chi2", 5], ids=["string", "int"])
    def test_names_must_be_a_list(self, names):
        with pytest.raises(ValueError, match=f"^names must be a list, got {names!r}$"):
            run_tests(np.ones(101), make_fit(), names=names)

    @pytest.mark.parametrize("bad", [None, {"p": 1, "n": 100}, "fit", "block"],
                             ids=["none", "dict", "string", "block"])
    def test_fit_must_be_the_fit_result_of_one_series(self, bad):
        if bad == "block":
            x = np.ones((2, 101)) + np.arange(101.0) % 3
            bad = ardw.fit(x, 1, RowErrors(2))
        for call in (lambda: run_tests(np.ones(101), bad),
                     lambda: run_tests(np.ones(101), bad, names=()),
                     lambda: dw_chi2_test(bad),
                     lambda: durbin_h_test(bad)):
            with pytest.raises(ValueError, match="^fit must be the FitResult of one series, got "):
                call()

    def test_x_must_have_the_shape_of_the_residuals(self):
        x = ardw.simulate(params([0.5], 0.0), 100, seed=1).x
        f = ardw.fit(x, 1)
        for bad, shape in ((np.stack([x, x]), (2, 101)), (x[:10], (10,)), (x[0], ()),
                           (None, ())):
            message = f"x must have shape (101,), the shape of the fit's residuals, got {shape}"
            for names in (TEST_NAMES, ()):
                with pytest.raises(ValueError, match=re.escape(message)):
                    run_tests(bad, f, names=names)

    def test_unknown_name_same_message_as_study_config(self):
        for name in ("nope", ["dw_chi2"]):  # a name that is not a string is unknown too
            with pytest.raises(ValueError) as one:
                run_tests(np.ones(101), make_fit(), names=(name,))
            with pytest.raises(ValueError) as study:
                StudyConfig(params_list=(), n_list=(100,), tests=(name,))
            assert str(one.value) == str(study.value) == f"unknown test {name!r}"

    def test_any_recorded_error_is_inapplicable_for_one_series_and_a_block(self, monkeypatch):
        # a kernel error outside the tests' usual ones is inapplicable in
        # both paths: run_tests and outcome_masks read the same record
        def kernel(x, fit, errors):
            flagged = np.asarray(fit.rho_hat) > 0.0
            errors.add(flagged, DomainError, "recorded by the kernel")
            return np.zeros_like(fit.dw), np.zeros_like(fit.dw), []

        monkeypatch.setitem(ardw.serial_tests._TESTS, "dw_chi2", kernel)
        (out,) = run_tests(np.ones(101), make_fit(rho_hat=0.1), names=("dw_chi2",))
        assert out.warnings == ("inapplicable", "DomainError")
        assert np.isnan(out.statistic) and not out.reject
        x = np.ones((2, 101))
        fits = make_fit(rho_hat=np.array([0.1, -0.1]), dw=np.array([2.0, 2.0]))
        reject, inapplicable = outcome_masks(x, fits, np.zeros(2, dtype=bool), 0.05,
                                             ("dw_chi2",))["dw_chi2"]
        assert inapplicable.tolist() == [True, False]
        assert reject.tolist() == [False, True]
        with pytest.raises(DomainError, match="recorded by the kernel"):
            dw_chi2_test(make_fit(rho_hat=0.1))

    def test_monotone_in_level(self):
        traj = ardw.simulate(params([0.5], 0.2), 800, seed=2)
        f = ardw.fit(traj.x, 1)
        strict = run_tests(traj.x, f, level=0.01)
        loose = run_tests(traj.x, f, level=0.10)
        for s, l in zip(strict, loose):
            if s.reject:
                assert l.reject

    def test_statistics_grow_under_alternative(self):
        prm = params([0.5], 0.4)
        stats = []
        for n in (500, 5000, 50_000):
            traj = ardw.simulate(prm, n, seed=9)
            out = run_tests(traj.x, ardw.fit(traj.x, 1), names=("dw_chi2",))
            stats.append(out[0].statistic)
        assert stats[0] < stats[1] < stats[2]


class TestSerialization:
    def test_outcome_json_round_trip(self):
        out = dw_chi2_test(make_fit(var_theta1=0.0))
        import json

        d = json.loads(json.dumps(out.to_dict()))
        assert d["name"] == "dw_chi2"
        assert d["level"] == 0.05
        assert isinstance(d["reject"], bool)

    def test_outcomes_csv(self):
        traj = ardw.simulate(params([0.5], 0.0), 300, seed=4)
        outcomes = run_tests(traj.x, ardw.fit(traj.x, 1))
        text = ardw.outcomes_to_csv(outcomes)
        assert text.endswith("\n")
        lines = text.strip().splitlines()
        assert lines[0] == "name,statistic,p_value,reject,warnings"
        assert len(lines) == 1 + len(TEST_NAMES)


class TestNullDistribution:
    def test_p_values_uniform_under_null(self):
        # p-values of the chi-square procedure should be uniform under the
        # null at moderate sample sizes
        prm = params([0.5], 0.0)
        reps, n = 2000, 2000
        pvals = np.empty(reps)
        for rep in range(reps):
            traj = ardw.simulate(prm, n, seed=(123, rep))
            f = ardw.fit(traj.x, 1)
            pvals[rep] = dw_chi2_test(f).p_value
        ks = scipy.stats.kstest(pvals, "uniform").statistic
        assert ks < 0.04
