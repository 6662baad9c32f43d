"""The block path of a replication (simulate, fit and the five tests on an
(R, n+1) block of series) against its one-series case, row by row and bit
for bit, and the errors each row keeps."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ardw
import ardw.montecarlo
from ardw.errors import (
    SERIES,
    ArdwError,
    InapplicableH,
    NearZeroThetaP,
    RowErrors,
    SingularAuxiliaryRegression,
    SingularDesign,
)
from ardw.serial_tests import _TESTS, TEST_NAMES, outcome_masks
from ardw.simulate import NoiseSpec, _paths
from ardw.text import json_text

from conftest import random_stable_params

NOISES = (
    NoiseSpec(family="gaussian", sigma2=2.0),
    NoiseSpec(family="uniform"),
    NoiseSpec(family="student_t", df=4.5),
    NoiseSpec(family="rademacher", sigma2=0.5),
)
FIELDS = ("theta_hat", "residuals", "rho_hat", "sigma2_hat", "dw", "var_theta1_hat")


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def assert_rows_match_one_series(x, p, level=0.05):
    """fit and every test on the block x equal fit and run_tests on each row
    alone: the same bits, or the same error type and message (a ValueError
    for a value past 1e150)."""
    errors = RowErrors(len(x))
    fits = ardw.fit(x, p, errors)
    masks = outcome_masks(x, fits, errors.failed, level, TEST_NAMES)
    rows = {}
    for name in TEST_NAMES:
        test_errors = RowErrors(len(x))
        with np.errstate(all="ignore"):  # as outcome_masks runs them
            stat, p_value, _ = _TESTS[name](x, fits, test_errors)
        rows[name] = stat, p_value, test_errors
    for i, xi in enumerate(x):
        try:
            one = ardw.fit(xi, p)
        except (ArdwError, ValueError) as exc:
            kept = errors.error(i)
            assert (type(kept), str(kept)) == (type(exc), str(exc))
            assert all(masks[name][1][i] and not masks[name][0][i] for name in TEST_NAMES)
            continue
        assert not errors.failed[i]
        for name in FIELDS:
            assert bits(getattr(fits, name)[i]) == bits(getattr(one, name)), name
        for o in ardw.run_tests(xi, one, level=level):
            stat, p_value, test_errors = rows[o.name]
            inapplicable = "inapplicable" in o.warnings
            assert (masks[o.name][0][i], masks[o.name][1][i]) == (o.reject, inapplicable)
            if inapplicable:
                assert type(test_errors.error(i)).__name__ == o.warnings[1]
            else:
                assert bits([stat[i], p_value[i]]) == bits([o.statistic, o.p_value])


@st.composite
def blocks(draw):
    """Random stable parameters, a noise family, n down to p+2 (where many
    tests are inapplicable), a burn-in, seeds and a split into blocks."""
    params = random_stable_params(np.random.default_rng(draw(st.integers(0, 2**32))))
    n = draw(st.one_of(st.integers(params.p + 2, params.p + 6),
                       st.integers(params.p + 2, 80)))
    rows = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, rows), max_size=3)) | {rows})
    return (params, n, draw(st.sampled_from(NOISES)), draw(st.integers(0, 3)),
            [(draw(st.integers(0, 9)), i) for i in range(rows)], cuts)


@settings(max_examples=40)
@given(blocks())
def test_blocks_equal_one_series(case):
    params, n, noise, burn_in, seeds, cuts = case
    block = _paths(params, n, noise, seeds, burn_in)
    for row, seed in enumerate(seeds):
        one = ardw.simulate(params, n, noise, seed, burn_in)
        for a, name in zip(block, ("x", "eps", "v")):
            assert bits(a[row]) == bits(getattr(one, name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start, stop in zip([0, *cuts], cuts):
            assert_rows_match_one_series(block[0][start:stop], params.p)


def one_series_counts(config: ardw.StudyConfig) -> dict:
    """The table's counts from simulate, fit and run_tests one replication
    at a time; a replication that fails to fit is inapplicable throughout."""
    counts = {}
    for pid, params in enumerate(config.params_list):
        for n in config.n_list:
            cell = counts[pid, n] = Counter()
            for rep in range(config.reps):
                seed = (config.master_seed, pid, n, rep)
                x = ardw.simulate(params, n, config.noise, seed, config.burn_in).x
                try:
                    outcomes = ardw.run_tests(x, ardw.fit(x, params.p), config.level,
                                              config.tests)
                except ArdwError:
                    cell.update((name, "inapplicable") for name in config.tests)
                    continue
                for o in outcomes:
                    cell[o.name, "reject"] += o.reject
                    cell[o.name, "inapplicable"] += "inapplicable" in o.warnings
    return counts


class InProcessPool:
    """Maps in this process: the chunking of a worker count, no processes."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@settings(max_examples=5)
@given(st.integers(0, 2**32), st.sampled_from(NOISES), st.integers(0, 2),
       st.sampled_from([2**6, 2**9, 2**16]), st.sampled_from([0.05, 0.3]))
def test_study_counts_equal_one_series_for_any_worker_count(seed, noise, burn_in, block,
                                                            level):
    rng = np.random.default_rng(seed)
    config = ardw.StudyConfig(
        params_list=(random_stable_params(rng),), n_list=(8, 40), reps=100,
        master_seed=int(rng.integers(1000)), noise=noise, burn_in=burn_in, level=level,
    )
    expected = one_series_counts(config)
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        mp.setattr(ardw.montecarlo, "BLOCK_ELEMENTS", block)
        mp.setattr(ardw.montecarlo.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            tables.append(ardw.size_power_study(config, workers=workers))
    assert tables[0] == tables[1] == tables[2]
    for row in tables[0].rows:
        cell = expected[row["params_id"], row["n"]]
        assert row["rejection_rate"] == cell[row["test_name"], "reject"] / config.reps
        assert row["inapplicable_rate"] == (
            cell[row["test_name"], "inapplicable"] / config.reps
        )


class TestErrorParity:
    """fit and the tests raise what they raised one series at a time."""

    @pytest.mark.parametrize("x, p, message", [
        (np.zeros(8), 2, "design Gram matrix singular (cond ~ inf)"),
        (np.array([0.0, 2.12867068e-162, 0.0]), 1, "variance of theta_hat_1 is nan"),
        (np.array([1.0, 2.0]), 1, "series length 2 < p+2 = 3"),
        (np.array([1.0, 2.0, 3.0]), 2, "series length 3 < p+2 = 4"),
    ], ids=["zero", "subnormal_gram", "short_p1", "short_p2"])
    def test_fit_raises(self, x, p, message):
        with pytest.raises(SingularDesign) as info:
            ardw.fit(x, p)
        assert type(info.value) is SingularDesign
        assert str(info.value) == message

    def test_alternating_series(self):
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        f = ardw.fit(x, 1)
        assert json_text(f.to_dict(), indent=None) == (
            '{"p": 1, "n": 4, "theta_hat": [0.0], "rho_hat": 0.0, "sigma2_hat": null, '
            '"dw": 1.3333333333333333, "var_theta1_hat": 0.375, '
            '"warnings": ["near_zero_theta_p"]}\n'
        )
        for test, args, error, message in [
            (_TESTS["breusch_godfrey"], (x, f, SERIES), SingularAuxiliaryRegression,
             "auxiliary Gram matrix singular (cond ~ 5.96e+16)"),
            (ardw.durbin_h_test, (f,), InapplicableH,
             "nonpositive radicand 1 - n*var = -0.5"),
            (ardw.dw_chi2_test, (f,), NearZeroThetaP,
             "p-th coefficient estimate is numerically zero"),
        ]:
            with pytest.raises(error) as info:
                test(*args)
            assert str(info.value) == message

    def test_singular_row_leaves_good_rows_unchanged(self):
        params = ardw.ModelParams(p=2, theta=np.array([0.4, -0.3]), rho=0.2)
        good = _paths(params, 60, None, [(3, i) for i in range(5)], 0)[0]
        block = good.copy()
        block[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors, ref_errors = RowErrors(5), RowErrors(5)
            fits, ref = ardw.fit(block, 2, errors), ardw.fit(good, 2, ref_errors)
            masks = outcome_masks(block, fits, errors.failed, 0.05, TEST_NAMES)
            ref_masks = outcome_masks(good, ref, ref_errors.failed, 0.05, TEST_NAMES)
        assert errors.failed.tolist() == [False, False, True, False, False]
        assert str(errors.error(2)) == "design Gram matrix singular (cond ~ inf)"
        kept = [0, 1, 3, 4]
        for name in FIELDS:
            assert bits(getattr(fits, name)[kept]) == bits(getattr(ref, name)[kept])
        for name in TEST_NAMES:
            assert masks[name][1][2] and not masks[name][0][2]
            for mask, ref_mask in zip(masks[name], ref_masks[name]):
                assert mask[kept].tolist() == ref_mask[kept].tolist()

    @settings(max_examples=40)
    @example([0.0] * 6)
    @example([1.0, 1e150, 0.0, -1.0])
    @example([np.inf, 1.0, np.nan, 0.5])
    @given(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.12867068e-162, 1e149, 5e-324, 1e150,
                                     -1e300, np.inf, np.nan]),
                    min_size=4, max_size=9))
    def test_degenerate_rows_neither_raise_nor_warn(self, row):
        # zeros, subnormals, values near or past the 1e150 bound and non-finite
        # values fail the checks in turn; stacked with a zero row and a good one
        x = np.array([row, [0.0] * len(row), [1.0, -0.5, 0.3, 0.9, -1.1, 0.2, 0.7, -0.4,
                                               0.1][: len(row)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_rows_match_one_series(x, 1)
            assert_rows_match_one_series(x, 2)


def test_one_series_outputs_golden():
    # the JSON of fit, run_tests and clt_diagnostic as the one-series code
    # wrote it before the block path: any change of bits in a fit, a
    # statistic or a p-value shows here
    text = ""
    for pid, params in enumerate(ardw.DEFAULT_SUITE):
        for n in (6, 500):
            x = ardw.simulate(params, n, seed=(7, pid)).x
            f = ardw.fit(x, params.p)
            text += json_text(f.to_dict()) + "".join(
                json_text(o.to_dict(), indent=None) for o in ardw.run_tests(x, f))
    text += json_text(ardw.clt_diagnostic(ardw.DEFAULT_SUITE[1], 200, 100, seed=3))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "78c246fc985b36329d18ce91aec5823fbe1dc651af316f144996276959ef94bb"
    )


# sha256 of NoiseSpec(family, sigma2=2.5, df=6).draw(rng, 1001), rng numpy's
# default_rng(SeedSequence(7)), and of x, eps and v of a 3-row _paths block,
# as the row-by-row draws gave them; no study golden covers uniform or
# rademacher noise. They live here, not in test_simulator.py, which also runs
# on the oldest numpy and scipy.
DRAW_GOLDENS = {
    "gaussian": ("0a2cbaadf7ced9711a4b49b0d6e9bfd60ced4a57befcd53d7fdaeab51e6efd6f",
                 "2763d0dec833b6a576e690bce4dee20a40f6fbdbb300f7067b8ae9e0e27ae366"),
    "uniform": ("3ecd8c993d5c192fd9aeea8cc19ffbfde9f2f605c38ec249db3f294eb4d8dd29",
                "cafcd58ec4352426b76c79c66d65da0d5eb845cc5e2213f80cce9b0f174e4940"),
    "student_t": ("c36d24ffec5b247e5cd912970819710a37d14b0779ed8648857310e75de08764",
                  "13b8409044d76d41d883503553c133f268c575426773abd98c5ab9b655ae3d0e"),
    "rademacher": ("921f397c52924cdb326f8f543b554d0538944e30cb7a85498b4c86bd2633207a",
                   "b0fe683c5c78a067c6921a780c7c45173707b4c2fd30cf82a5e3ce51e5929ede"),
}


@pytest.mark.parametrize("family", list(DRAW_GOLDENS))
def test_draws_golden(family):
    noise = NoiseSpec(family, sigma2=2.5, df=6)
    draws = noise.draw(np.random.default_rng(np.random.SeedSequence(7)), 1001)
    block = _paths(ardw.ModelParams(p=2, theta=[0.4, -0.3], rho=0.2), 60, noise,
                   [3, (5, 1), 2**40], 4)
    assert (hashlib.sha256(bits(draws)).hexdigest(),
            hashlib.sha256(b"".join(map(bits, block))).hexdigest()) == DRAW_GOLDENS[family]


# one fresh interpreter runs each step in turn and prints whether scipy.signal
# is then in sys.modules
SIMULATING_STEPS = """
import sys, ardw
prm = ardw.DEFAULT_SUITE[1]
steps = {
    "import ardw": lambda: None,
    "simulate": lambda: ardw.simulate(prm, 50, seed=1),
    "size_power_study": lambda: ardw.size_power_study(
        ardw.StudyConfig(params_list=(prm,), n_list=(30,), reps=100), workers=2),
    "clt_diagnostic": lambda: ardw.clt_diagnostic(prm, 50, 20, seed=1),
    "rate_diagnostic": lambda: ardw.rate_diagnostic(prm, 500),
}
for name, step in steps.items():
    step()
    print(name, "scipy.signal" in sys.modules)
"""


def test_import_leaves_scipy_signal_out(tmp_path):
    # scipy.signal takes about a second to import; simulating loads only its
    # filter kernel, so neither importing ardw nor simulating imports it
    env = dict(os.environ, PYTHONPATH=str(Path(ardw.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", SIMULATING_STEPS], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.splitlines() == [
        "import ardw False", "simulate False", "size_power_study False",
        "clt_diagnostic False", "rate_diagnostic False",
    ]
    # -X importtime names every module the command imports, on stderr
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ardw.cli", "simulate", "--theta", "0.5",
         "--rho", "0.3", "--n", "200", "--output", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    assert (tmp_path / "x.csv").exists() and "numpy" in imported
    assert "scipy.signal" not in imported


def test_first_simulate_leaves_scipy_out():
    # finding scipy.signal would run scipy's own __init__; the kernel is
    # looked up from the top-level package, which finding does not import
    env = dict(os.environ, PYTHONPATH=str(Path(ardw.__file__).parents[1]))
    code = ("import sys, ardw; ardw.simulate(ardw.DEFAULT_SUITE[1], 50); "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout == "False\n"
