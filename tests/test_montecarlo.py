import concurrent.futures
import hashlib
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ardw
import ardw.montecarlo
from ardw.cli import run
from ardw.errors import ArdwError
from ardw.estimators import lag_matrix
from ardw.montecarlo import DEFAULT_SUITE, _ldl_solve, _theta_hat_blocks
from ardw.simulate import NoiseSpec
from ardw.text import json_text

from conftest import random_stable_params


def params(theta, rho, sigma2=1.0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return ardw.ModelParams(p=len(theta), theta=theta, rho=rho, sigma2=sigma2)


@dataclass(frozen=True)
class ZeroNoise(NoiseSpec):
    """Draws only zeros, so every path is zero."""

    def _block(self, rngs, m):
        return np.zeros((len(rngs), m))


def lag_matrix_theta_hat_blocks(x, p, start):
    """_theta_hat_blocks written with a lag matrix, broadcast (n, p, p) Gram
    products and one cumsum over the whole path, each block solved by
    _ldl_solve or, where it declines, np.linalg.solve: the reference for the
    bits of every stage's sums, cut into the blocks _theta_hat_blocks yields."""
    L = lag_matrix(x, p)
    gram = np.cumsum(L[:, :, None] * L[:, None, :], axis=0)
    num = np.cumsum(L * x[1:, None], axis=0)
    rows = max(1, ardw.montecarlo.BLOCK_ELEMENTS // (2 * p * (p + 1)))
    i, j = np.triu_indices(p)
    for a in range(0, len(L), rows):
        s = max(a, start - 1)
        if s < min(a + rows, len(L)):
            g, b = gram[s:a + rows], num[s:a + rows]
            theta = np.empty(b.shape[::-1])
            if _ldl_solve(g[:, i, j], b, theta):
                yield s + 1, theta.T
            else:
                yield s + 1, np.linalg.solve(g, b[:, :, None])[..., 0]


def solve_bound(a, x):
    """The fixed bound on |x - np.linalg.solve(a, b)| for a solution x of an
    SPD stage system a x = b: 16 p^2 eps cond(a) |x|, in 2-norms. Both
    solvers are backward stable, to c p eps |a| each."""
    p = len(x)
    return 16 * p * p * np.finfo(float).eps * np.linalg.cond(a) * np.linalg.norm(x)


def numbers(obj) -> list:
    """The numbers of a report, its dicts and lists read in order."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    return [v for e in obj for v in numbers(e)] if isinstance(obj, list) else [obj]


def scalar_ldl(a, b):
    """The stage system a x = b (a read from its upper triangle) solved by
    A = L D L^T in Python floats, in _ldl_solve's order of operations: x as
    a list, or None where a pivot is below the smallest normal double (zero
    and negative included) or a value given or computed is not finite."""
    p = len(b)
    w = [[float(v) for v in row] + [float(bi)] for row, bi in zip(a, b)]
    seen = [v for i, row in enumerate(w) for v in row[i:]]
    for k in range(p):
        if not w[k][k] >= sys.float_info.min:
            return None
        for i in range(k + 1, p):
            w[i][k] = w[k][i] / w[k][k]  # L[i][k], in the lower triangle
            seen.append(w[i][k])
        for i in range(k + 1, p):
            for j in range(i, p + 1):  # row i of the reduced A, then y_i
                t = w[i][k] * w[k][j]
                w[i][j] = w[i][j] - t
                seen += [t, w[i][j]]
    x = [w[i][p] / w[i][i] for i in range(p)]
    seen += x
    for k in range(p - 1, 0, -1):
        for j in range(k):
            t = w[k][j] * x[k]
            x[j] = x[j] - t
            seen += [t, x[j]]
    return x if all(map(math.isfinite, seen)) else None


def ldl_stages(a, b):
    """_ldl_solve of the stacked symmetric systems a x = b, given their upper
    triangles as _theta_hat_blocks gives them: the bytes of each stage's
    solution, or None where it declines the block."""
    m, p = b.shape
    out = np.empty((p, m))
    rows, cols = np.triu_indices(p)
    solved = _ldl_solve(a[:, rows, cols], b, out)
    return [row.tobytes() for row in out.T] if solved else None


def edge_systems(p):
    """Stage systems at the edges of _ldl_solve's rule, each with whether it
    is declined: identity systems whose last pivot is the smallest normal
    double or below it (zero, -0.0 and negative), or not finite; an infinite
    or NaN numerator; a solution that overflows; and for p >= 2 an infinite
    off-diagonal entry and a positive diagonal whose second pivot is -3."""
    tiny, cases = np.finfo(float).tiny, []
    for pivot, declined in ((tiny, False), (tiny / 2, True), (0.0, True), (-0.0, True),
                            (-1.0, True), (np.inf, True), (np.nan, True)):
        a = np.eye(p)
        a[-1, -1] = pivot
        cases.append((a, np.ones(p), declined))
    for value in (np.inf, np.nan):
        cases.append((np.eye(p), np.full(p, value), True))
    cases.append((np.eye(p) * 1e-300, np.full(p, 1e300), True))
    if p >= 2:
        for value in (np.inf, 2.0):
            a = np.eye(p)
            a[0, 1] = a[1, 0] = value
            cases.append((a, np.ones(p), True))
    a, b, declined = zip(*cases)
    return np.array(a), np.array(b), list(declined)


def stage_systems(family, rng, p, m, scale):
    """m stacked symmetric (p, p) systems a x = b of one family, scaled by
    `scale` (the path, for "gram"): a random matrix's upper triangle
    mirrored."""
    if family == "dense":  # Gaussian, each system scaled by e^(+-20)
        a = rng.standard_normal((m, p, p)) * np.exp(rng.uniform(-20, 20, (m, 1, 1)))
        b = rng.standard_normal((m, p))
    elif family == "gram":  # the rate diagnostic's sums over a scaled stable path
        x = ardw.simulate(random_stable_params(rng, p), m + 60,
                          seed=int(rng.integers(2**32))).x * scale
        lags = lag_matrix(x, p)
        with np.errstate(all="ignore"):
            return (np.cumsum(lags[:, :, None] * lags[:, None, :], axis=0)[-m:],
                    np.cumsum(lags * x[1:, None], axis=0)[-m:])
    elif family == "ties":  # {-1, 0, 1} entries: many equal |c_i| in pivoting
        a = rng.integers(-1, 2, (m, p, p)).astype(float)
        b = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], (m, p))
    elif family == "tied_lags":  # Gram sums of {-1, 0, 1} lags, integer sums
        lags = rng.integers(-1, 2, (m, 2 * p + 1, p)).astype(float)
        a = lags.transpose(0, 2, 1) @ lags
        b = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], (m, p))
    else:  # "zeros": Gaussian with +0.0 and -0.0 entries
        a = rng.standard_normal((m, p, p))
        b = rng.standard_normal((m, p))
        for arr, share in ((a, 0.3), (b, 0.05)):
            arr[rng.random(arr.shape) < share] = 0.0
            arr[rng.random(arr.shape) < share] = -0.0
    rows, cols = np.triu_indices(p)
    a[:, cols, rows] = a[:, rows, cols]
    return a * scale, b * scale


def small_config(**kw):
    base = dict(
        params_list=(params([0.5], 0.0), params([0.5], 0.5)),
        n_list=(100,),
        reps=200,
        master_seed=42,
    )
    base.update(kw)
    return ardw.StudyConfig(**base)


def serial_pool(monkeypatch) -> list:
    """Replace the study's process pool by one that maps in this process and
    records the size it was asked for in the returned list."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestStudyConfig:
    def test_reps_floor(self):
        with pytest.raises(ValueError):
            small_config(reps=50)

    def test_level_range(self):
        with pytest.raises(ValueError):
            small_config(level=1.5)

    def test_unknown_test_name(self):
        with pytest.raises(ValueError, match="unknown test 'no_such_test'"):
            small_config(tests=("dw_chi2", "no_such_test"))

    @pytest.mark.parametrize("n_list", [(3,), (100, 3)], ids=["only", "one_of_two"])
    def test_n_below_p_plus_2_for_any_params(self, n_list):
        # n = 3 suits p = 1 but not p = 2
        ok = small_config(n_list=(3,))
        assert ok.n_list == (3,)
        with pytest.raises(ValueError, match=r"p\+2 = 4"):
            small_config(params_list=(params([0.5], 0.0), params([0.4, -0.3], 0.0)),
                         n_list=n_list)

    @pytest.mark.parametrize("name, value", [
        ("tests", "dw_chi2"), ("n_list", 100), ("params_list", params([0.5], 0.0)),
    ], ids=["tests_name", "n_list_int", "params_list_one"])
    def test_lists_must_be_non_string_iterables(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a list, got "):
            small_config(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("n_list", (100, np.int64(100)), "n_list must not repeat a value, got (100, 100)"),
        ("tests", ("dw_chi2", "dw_chi2"),
         "tests must not repeat a value, got ('dw_chi2', 'dw_chi2')"),
        ("noise", "gaussian", "noise must be a NoiseSpec, got 'gaussian'"),
        ("noise", None, "noise must be a NoiseSpec, got None"),
        ("params_list", ({"p": 1, "theta": [0.5], "rho": 0.0},),
         "each params_list entry must be a ModelParams, got {'p': 1"),
    ], ids=["n_repeated", "test_repeated", "noise_str", "noise_none", "params_dict"])
    def test_bad_values_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            small_config(**{name: value})

    def test_empty_lists_allowed(self):
        cfg = small_config(params_list=[], n_list=[], tests=iter(()))
        assert (cfg.params_list, cfg.n_list, cfg.tests) == ((), (), ())

    def test_from_json(self, tmp_path):
        raw = {
            "params_list": [
                {"p": 1, "theta": [0.5], "rho": 0.0},
                {"p": 2, "theta": [0.4, -0.3], "rho": -0.5, "sigma2": 2.0},
            ],
            "n_list": [100, 300],
            "reps": 250,
            "level": 0.1,
            "master_seed": 7,
            "noise": {"family": "uniform"},
            "tests": ["dw_chi2", "durbin_h"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        cfg = ardw.StudyConfig.from_json(path)
        assert cfg.reps == 250
        assert cfg.level == 0.1
        assert cfg.n_list == (100, 300)
        assert cfg.tests == ("dw_chi2", "durbin_h")
        assert cfg.noise.family == "uniform"
        assert cfg.params_list[1].sigma2 == 2.0
        assert cfg.params_list[1].theta == pytest.approx([0.4, -0.3])

    def test_default_suite_is_stable(self):
        for prm in DEFAULT_SUITE:
            ardw.check_stability(prm)


class TestSizePowerStudy:
    def test_table_shape_and_bounds(self):
        table = ardw.size_power_study(small_config())
        assert len(table.rows) == 2 * 1 * 5
        for r in table.rows:
            assert 0.0 <= r["rejection_rate"] <= 1.0
            assert 0.0 <= r["inapplicable_rate"] <= 1.0
            assert r["rejection_rate"] + r["inapplicable_rate"] <= 1.0 + 1e-12
            assert r["reps"] == 200

    def test_size_within_monte_carlo_error(self):
        cfg = small_config(n_list=(500,), reps=400)
        table = ardw.size_power_study(cfg)
        r = table.rate(0, 500, "dw_chi2")
        stderr = np.sqrt(0.05 * 0.95 / 400)
        assert abs(r - 0.05) <= 4.0 * stderr

    def test_rate_of_a_missing_cell_raises_key_error(self):
        table = ardw.PowerTable(rows=({"params_id": 0, "n": 100, "test_name": "dw_chi2",
                                       "rejection_rate": 0.25},))
        assert table.rate(0, 100, "dw_chi2") == 0.25
        with pytest.raises(KeyError, match=r"\(0, 100, 'durbin_h'\)"):
            table.rate(0, 100, "durbin_h")

    def test_power_exceeds_size(self):
        cfg = small_config(n_list=(500,), reps=300)
        table = ardw.size_power_study(cfg)
        assert table.rate(1, 500, "dw_chi2") > table.rate(0, 500, "dw_chi2") + 0.3

    @pytest.mark.parametrize("sigma2, inapplicable", [(1e300, 1.0), (1e296, 0.0)])
    def test_values_past_1e150_fail_their_rows(self, sigma2, inapplicable):
        # fit refuses a path that reaches 1e150 as a row error, so a config
        # that passes its checks runs to the end
        cfg = ardw.StudyConfig(params_list=DEFAULT_SUITE[:1], n_list=(100,), reps=100,
                               noise=NoiseSpec(sigma2=sigma2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = ardw.size_power_study(cfg)
        assert [r["inapplicable_rate"] for r in table.rows] == [inapplicable] * 5

    def test_worker_count_does_not_change_table(self):
        cfg = small_config(reps=120)
        serial = ardw.size_power_study(cfg, workers=1).to_csv()
        parallel = ardw.size_power_study(cfg, workers=4).to_csv()
        assert serial == parallel

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_task_per_worker_per_cell(self, monkeypatch, workers):
        # task w of a cell runs the replications range(w, reps, workers)
        cfg = small_config(n_list=(40, 100), reps=101)
        serial = ardw.size_power_study(cfg)
        serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        tasks, run_chunk = [], ardw.montecarlo._run_chunk
        monkeypatch.setattr(ardw.montecarlo, "_run_chunk",
                            lambda task: tasks.append(task[1:]) or run_chunk(task))
        assert ardw.size_power_study(cfg, workers=workers) == serial
        assert len(tasks) == len(cfg.params_list) * len(cfg.n_list) * workers
        assert tasks == [(params_id, n, range(w, cfg.reps, workers))
                         for params_id in range(len(cfg.params_list))
                         for n in cfg.n_list for w in range(workers)]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # the huge worker count starts no process
        sizes = serial_pool(monkeypatch)
        cfg = small_config(reps=100)
        table = ardw.size_power_study(cfg, workers=10**6)
        assert all(size <= os.cpu_count() for size in sizes)
        assert table == ardw.size_power_study(cfg, workers=1)

    @pytest.mark.parametrize("workers", [1.5, "2", True, None],
                             ids=["float", "str", "bool", "none"])
    def test_workers_must_be_an_integer(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer"):
            ardw.size_power_study(small_config(reps=100), workers=workers)

    @pytest.mark.parametrize("config", ["cfg", None, {"reps": 100}], ids=["str", "none", "dict"])
    def test_config_must_be_a_study_config(self, config):
        message = f"config must be a StudyConfig, got {config!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ardw.size_power_study(config)

    def test_numpy_integer_workers_and_seed_stored_as_int(self, monkeypatch):
        sizes = serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = small_config(reps=100, master_seed=np.int64(3))
        assert type(cfg.master_seed) is int
        table = ardw.size_power_study(cfg, workers=np.int64(2))
        assert sizes == [2] and type(sizes[0]) is int
        assert table.to_csv() == ardw.size_power_study(small_config(reps=100, master_seed=3)).to_csv()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_table(self, workers):
        # the acceptance criterion 11 config; any change to the random
        # streams or the tabulation shows here
        cfg = ardw.StudyConfig(
            params_list=(params([0.5], 0.0), params([0.4, -0.3], -0.5)),
            n_list=(100, 300), reps=400, master_seed=808,
        )
        csv = ardw.size_power_study(cfg, workers=workers).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "42974f5902b6b282243a328d29c195d06e9c78a7cbb6ded5d305c3ae8b6282fd"
        )

    def test_golden_table_burn_in_student_t(self):
        # pins the burn-in noise chain and the heavy-tailed draws, which the
        # criterion 11 config leaves at their defaults
        cfg = ardw.StudyConfig(
            params_list=(params([0.5], 0.3), params([0.4, -0.3], -0.5)),
            n_list=(80, 200), reps=200, master_seed=1871, burn_in=7,
            noise=NoiseSpec(family="student_t", df=6.0),
        )
        csv = ardw.size_power_study(cfg).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "e18cb840654a0d3987fc793e971bb2f99ce020ceeb1bba7ae371ba8718fbc517"
        )

    def test_master_seed_changes_table(self):
        a = ardw.size_power_study(small_config(master_seed=1)).to_csv()
        b = ardw.size_power_study(small_config(master_seed=2)).to_csv()
        assert a != b

    def test_csv_and_json_outputs(self, tmp_path):
        # the two forms `ardw power` writes
        table = ardw.size_power_study(small_config(reps=100))
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({
            "params_list": [{"p": 1, "theta": [0.5], "rho": rho} for rho in (0.0, 0.5)],
            "n_list": [100], "reps": 100, "master_seed": 42,
        }))
        csv_path = tmp_path / "table.csv"
        json_path = tmp_path / "table.json"
        assert run(["power", "--config", str(cfg_path), "--output", str(csv_path)]) == 0
        assert run(["power", "--config", str(cfg_path), "--output", str(json_path),
                    "--format", "json"]) == 0
        assert csv_path.read_text() == table.to_csv()
        header = csv_path.read_text().splitlines()[0]
        assert header == (
            "params_id,n,test_name,rejection_rate,inapplicable_rate,mc_stderr,reps"
        )
        assert json_path.read_text().endswith("]\n")
        rows = json.loads(json_path.read_text())
        assert rows == list(table.rows)
        assert rows[0]["test_name"] == "dw_chi2"


class TestCltDiagnostic:
    def test_joint_covariance_converges(self):
        prm = params([0.5], 0.3)
        report = ardw.clt_diagnostic(prm, n=2000, reps=1500, seed=0)
        assert report["kept"] == 1500
        assert not report["gamma_singular"]
        assert report["rel_frobenius_joint"] < 0.15
        assert report["rel_error_var_dw"] < 0.15

    def test_singular_joint_skipped(self):
        # theta = -rho makes the limiting serial correlation vanish and the
        # joint asymptotic covariance singular
        report = ardw.clt_diagnostic(params([0.5], -0.5), n=500, reps=200, seed=1)
        assert report["gamma_singular"]
        assert np.isnan(report["rel_frobenius_joint"])


    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        ((1, 2), "seed must be an integer, got (1, 2)"),
    ], ids=["negative", "bool", "float", "tuple"])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ValueError) as info:
            ardw.clt_diagnostic(params([0.5], 0.3), n=100, reps=10, seed=seed)
        assert str(info.value) == message

    def test_short_path_rejected_before_seed(self):
        with pytest.raises(ValueError, match=r"need n >= p\+2 = 3"):
            ardw.clt_diagnostic(params([0.5], 0.3), n=2, reps=10, seed=-1)

    def test_fewer_than_two_fits_raise(self):
        # every path is zero, so every fit fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArdwError, match=r"kept 0 of 20 fits, need 2; "
                               r"first failure: SingularDesign: design Gram"):
                ardw.clt_diagnostic(params([0.5], 0.3), n=50, reps=20,
                                    noise=ZeroNoise())


class TestRateDiagnostic:
    @pytest.mark.parametrize("theta, n_max", [([0.5], 30), ([0.5], 50), ([0.1] * 6, 60)],
                             ids=["p1_n30", "p1_n50", "p6_n60"])
    def test_path_not_past_first_stage_rejected(self, theta, n_max):
        with pytest.raises(ValueError, match="first estimation stage"):
            ardw.rate_diagnostic(params(theta, 0.0), n_max=n_max)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_max", [2**62, 2**63, 2**64])
    def test_impossible_path_length_is_numpys_value_error(self, n_max):
        # numpy refuses these sizes before it allocates anything, and before
        # the checkpoint grid: its float cast of n_max >= 2**63 warns, and
        # its log10 of n_max >= 2**64 raises TypeError
        with pytest.raises(ValueError, match="array is too big|Maximum allowed dimension"):
            ardw.rate_diagnostic(params([0.5], 0.0), n_max=n_max)

    def test_one_step_past_first_stage(self):
        report = ardw.rate_diagnostic(params([0.1] * 6, 0.0), n_max=61)
        assert [row["n"] for row in report["checkpoints"]] == [61]

    def test_theta_hat_path_matches_full_fits(self, monkeypatch):
        # blocks of 2**9 // (2p (p+1)) = 42 stages at p = 2 put stages 50,
        # 120 and 200 in three blocks
        monkeypatch.setattr(ardw.montecarlo, "BLOCK_ELEMENTS", 2**9)
        traj = ardw.simulate(params([0.4, -0.3], 0.2), 200, seed=6)
        blocks = list(_theta_hat_blocks(traj.x, 2, start=50))
        assert [k0 for k0, _ in blocks] == [50, 85, 127, 169]
        theta = np.concatenate([t for _, t in blocks])
        assert theta.shape == (151, 2)
        for k in (50, 120, 200):
            ref = ardw.fit(traj.x[: k + 1], 2).theta_hat
            assert theta[k - 50] == pytest.approx(ref, abs=1e-10)

    def test_report_golden(self):
        # the JSON of rate_diagnostic as the full-length cumulative sums
        # wrote it: blocks must give the same bits
        cases = [
            (DEFAULT_SUITE[0], 200_000, 8, None),
            (DEFAULT_SUITE[4], 70_000, 3, None),
            (ardw.ModelParams(p=6, theta=[0.1] * 6, rho=0), 61, 0, None),
            (DEFAULT_SUITE[4], 2000, 1203, None),
            (DEFAULT_SUITE[3], 131_073, 5, NoiseSpec(family="student_t", df=4.5)),
        ]
        digests = [
            hashlib.sha256(json_text(ardw.rate_diagnostic(prm, n, seed=seed, noise=noise))
                           .encode()).hexdigest()
            for prm, n, seed, noise in cases
        ]
        assert digests == [
            "caca52b26c16a8c2163a0b95d7bf6657a54557bfb5ca77ed70c0a5e974017a08",
            "26c9a8063e662cb5ec3a771f0437ba2a0ac23419887e976a875e2edd580d6e2c",
            "9fb92d67bb80f6e55a866008345fc2663efad426760e5d5d460e0c6af06e48af",
            "58d5ac33c6994a174644f15e040d6975ad13d808b8cd94b94b7410baca8e079d",
            "7d2f8fba606adb13063d3844aaf0ad0c07b1cc8a031dc17fb2d0dfd76cc21112",
        ]

    def test_report_golden_student_t_and_p4(self):
        # p = 1 under heavy-tailed noise, whose stages are divisions, and a
        # p = 4 set, whose QSL sum covers a 10-entry triangle
        cases = [
            (DEFAULT_SUITE[1], 100_000, 11, NoiseSpec(family="student_t", sigma2=2.0, df=5.0)),
            (ardw.ModelParams(p=4, theta=[0.3, -0.2, 0.1, 0.15], rho=-0.3), 30_000, 4, None),
        ]
        digests = [
            hashlib.sha256(json_text(ardw.rate_diagnostic(prm, n, seed=seed, noise=noise))
                           .encode()).hexdigest()
            for prm, n, seed, noise in cases
        ]
        assert digests == [
            "bacd6914314f00efb48efe36cce9ea0f5288477b41891d34eb974dbb09312a6b",
            "bcbf3025123d5cdccc2b08e2cbfe66b0767116056621c854de6b580bdf4322b2",
        ]

    @pytest.mark.parametrize("prm, n, seed, noise", [
        (DEFAULT_SUITE[4], 70_000, 3, None),
        (ardw.ModelParams(p=6, theta=[0.1] * 6, rho=0), 61, 0, None),
        (DEFAULT_SUITE[4], 2000, 1203, None),
        (DEFAULT_SUITE[3], 131_073, 5, NoiseSpec(family="student_t", df=4.5)),
        (ardw.ModelParams(p=4, theta=[0.3, -0.2, 0.1, 0.15], rho=-0.3), 30_000, 4, None),
        *[(DEFAULT_SUITE[pid], 5000, 3, NoiseSpec(sigma2=sigma2))
          for pid in (3, 4) for sigma2 in (1e250, 1e300)],
    ], ids=["p3_n70000", "p6_n61", "p3_n2000", "p2_student_t", "p4_n30000",
            "p2_1e250", "p2_1e300", "p3_1e250", "p3_1e300"])
    def test_pinned_reports_are_within_the_bound_of_solve(self, prm, n, seed, noise):
        # every number of each pinned p >= 2 report is within a relative
        # 1e-9 (or 1e-12 absolute) of the report np.linalg.solve gives when
        # it solves every stage
        report = ardw.rate_diagnostic(prm, n, seed=seed, noise=noise)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ardw.montecarlo, "_ldl_solve", lambda gram, num, out: False)
            want = ardw.rate_diagnostic(prm, n, seed=seed, noise=noise)
        assert numbers(report) == pytest.approx(numbers(want), rel=1e-9, abs=1e-12)

    @given(st.integers(0, 2**32), st.floats(0.05, 0.9) | st.floats(-0.9, -0.05),
           st.integers(51, 3000), st.integers(1, 2**16),
           st.sampled_from([1e-160, 1.0, 1e140, 1e154]))
    @example(1, 0.5, 2000, 1, 1e-160)  # one stage a block, subnormal squares
    @example(2, 0.5, 3000, 2**16, 1e154)  # the sums overflow to inf
    def test_one_by_one_stages_match_solve(self, seed, theta, n, cap, scale):
        # a 1x1 stage system is one division, bit for bit what LAPACK's
        # gesv gives, whatever the block cap and the scale of the series
        x = ardw.simulate(params([theta], 0.3), n, seed=seed).x * scale
        lags = x[:-1]
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            gram, num = np.cumsum(lags * lags)[49:], np.cumsum(lags * x[1:])[49:]
            want = np.linalg.solve(gram[:, None, None], num[:, None, None])[..., 0]
            mp.setattr(ardw.montecarlo, "BLOCK_ELEMENTS", cap)
            got = np.concatenate([t for _, t in _theta_hat_blocks(x, 1, start=50)])
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(51, 1500),
           st.integers(1, 2**16), st.sampled_from([1e-160, 1.0, 1e140, 1e154]),
           st.integers(0, 60), st.booleans())
    @example(3, 3, 1500, 1, 1e-160, 0, False)  # one stage a block, subnormal products
    @example(4, 4, 1500, 2**16, 1e154, 0, True)  # the sums overflow to inf
    @example(5, 2, 800, 37, 1.0, 20, True)  # a -0.0 X_0 before a run of zeros
    @example(6, 1, 800, 2**16, 1.0, 60, False)  # a singular first stage raises
    def test_gram_sums_match_lag_matrix_reference(self, seed, p, n, cap, scale, lead,
                                                  negative):
        # the Gram sums from shifted slices of the path, one row per
        # upper-triangle entry, give every stage the bits of the lag matrix
        # and its broadcast products, whatever the block cap
        x = ardw.simulate(random_stable_params(np.random.default_rng(seed), p), n,
                          seed=seed).x * scale
        x[:lead] = 0.0
        if negative:
            x[0] = -abs(x[0])  # -0.0 where the run of zeros covers X_0

        def stages(blocks):
            try:
                return [(k0, t.shape, t.tobytes()) for k0, t in blocks(x, p, 50)]
            except np.linalg.LinAlgError as exc:
                return repr(exc)

        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(ardw.montecarlo, "BLOCK_ELEMENTS", cap)
            assert stages(_theta_hat_blocks) == stages(lag_matrix_theta_hat_blocks)

    @given(st.integers(0, 2**32), st.integers(1, 8),
           st.sampled_from(["gram", "tied_lags", "zeros"]),
           st.sampled_from([1e-160, 1.0, 1e140, 1e154]), st.integers(1, 40))
    @example(7, 3, "tied_lags", 1.0, 40)  # integer sums, some singular
    @example(8, 8, "gram", 1.0, 40)  # the longest chains of updates
    @example(15, 6, "gram", 1e140, 40)  # sums near the top of the normal range
    @example(9, 2, "gram", 1e-160, 10)  # subnormal pivots: declined
    @example(10, 4, "zeros", 1.0, 40)  # zero products and -0.0 entries
    def test_ldl_solve_has_the_bits_of_a_scalar_ldl(self, seed, p, family, scale, m):
        # the stages _ldl_solve takes, solved as one block, have the bytes of
        # the same L D L^T in Python floats, one stage at a time
        a, b = stage_systems(family, np.random.default_rng(seed), p, m, scale)
        want = [scalar_ldl(ai, bi) for ai, bi in zip(a, b)]
        kept = [i for i, x in enumerate(want) if x is not None]
        if family == "gram" and scale in (1.0, 1e140):
            assert len(kept) == m
        if kept:
            assert ldl_stages(a[kept], b[kept]) == [
                np.array(want[i]).tobytes() for i in kept]

    @given(st.integers(0, 2**32), st.integers(1, 8), st.sampled_from(["gram", "tied_lags"]),
           st.sampled_from([1e-150, 1.0, 1e140]), st.integers(1, 40))
    @example(11, 8, "gram", 1.0, 40)
    @example(12, 5, "tied_lags", 1e-150, 40)
    def test_ldl_solve_is_within_the_bound_of_solve(self, seed, p, family, scale, m):
        # on SPD stages of condition number up to 1e10 (sums of products of
        # lags, each A = L^T L), every solution is within solve_bound of
        # np.linalg.solve's, stage by stage
        a, b = stage_systems(family, np.random.default_rng(seed), p, m, scale)
        spd = [i for i in range(m) if np.linalg.cond(a[i]) <= 1e10
               and np.linalg.eigvalsh(a[i])[0] > 0]
        if not spd:
            return
        out = np.empty((p, len(spd)))
        rows, cols = np.triu_indices(p)
        assert _ldl_solve(a[spd][:, rows, cols], b[spd], out)
        for i, x in zip(spd, out.T):
            want = np.linalg.solve(a[i], b[i])
            assert np.linalg.norm(x - want) <= solve_bound(a[i], want)

    @given(st.integers(0, 2**32), st.integers(1, 8),
           st.sampled_from(["dense", "gram", "ties", "tied_lags", "zeros"]),
           st.sampled_from([1e-160, 1.0, 1e140, 1e154]), st.integers(1, 20))
    @example(13, 3, "dense", 1.0, 20)  # indefinite: negative pivots
    @example(14, 1, "zeros", 1.0, 20)  # zero and -0.0 pivots at p = 1
    def test_ldl_solve_declines_exactly_where_a_pivot_or_entry_fails(self, seed, p, family,
                                                                     scale, m):
        # a stage is declined exactly when the scalar L D L^T meets a pivot
        # below the smallest normal double or a value that is not finite,
        # and a block exactly when one of its stages is. The edge systems
        # decline as edge_systems says, whatever stages share their block
        a, b = stage_systems(family, np.random.default_rng(seed), p, m, scale)
        ea, eb, edge = edge_systems(p)
        a, b = np.concatenate([a, ea]), np.concatenate([b, eb])
        declined = [scalar_ldl(ai, bi) is None for ai, bi in zip(a, b)]
        assert declined[m:] == edge
        assert [ldl_stages(a[i:i + 1], b[i:i + 1]) is None for i in range(len(a))] == declined
        assert ldl_stages(a, b) is None
        kept = [i for i in range(len(a)) if not declined[i]]
        assert ldl_stages(a[kept], b[kept]) is not None

    @pytest.mark.parametrize("theta", [[0.5], [0.4, -0.3], [0.3, -0.2, 0.25],
                                       [0.3, -0.2, 0.1, 0.15], [0.1] * 5, [0.1] * 6],
                             ids=["p1", "p2", "p3", "p4", "p5", "p6"])
    def test_zero_path_raises_singular(self, theta):
        # every stage system of a zero path is singular: up to p = 5 the
        # solver declines its zero pivots, and np.linalg.solve raises
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            ardw.rate_diagnostic(params(theta, 0.3), 500, noise=ZeroNoise())

    @settings(max_examples=20)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(51, 5000),
           st.integers(0, 2**32), st.integers(1, 60))
    @example(0, 1, 1000, 1, 1)  # every stage is a block, and so every checkpoint
    @example(0, 1, 2000, 2, 28)  # a block starts at stage start = 50
    @example(0, 1, 2000, 3, 20)  # a block ends at stage start = 50
    @example(0, 4, 51, 0, 1)  # one-stage blocks: 4-term dots of strided rows
    def test_block_cap_leaves_report_unchanged(self, pseed, p, n_max, seed, small):
        # blocks hold cap // (2p (p+1)) stages, at least one, and start = 50
        # for p <= 5: the caps put block boundaries before, at and after it,
        # among the checkpoints, or none at all
        prm = random_stable_params(np.random.default_rng(pseed), p)
        texts = set()
        with pytest.MonkeyPatch.context() as mp:
            for cap in (2**16, 2**9, 2**6, small):
                mp.setattr(ardw.montecarlo, "BLOCK_ELEMENTS", cap)
                texts.add(json_text(ardw.rate_diagnostic(prm, n_max, seed=seed)))
        assert len(texts) == 1

    def test_memory_grows_by_the_path_and_its_lags(self):
        # per extra step at p = 3: 24.0 bytes. The lags are slices of the
        # path itself, and one block's arrays, which do not grow with n, stay
        # below simulate's x, eps and v (24 bytes a step): both peaks are
        # those three arrays. A padded copy of the path would add 8 bytes a
        # step, a lag matrix 8p
        prm = DEFAULT_SUITE[4]
        ardw.rate_diagnostic(prm, 1000)  # loads the filter kernel before tracing
        peaks = []
        for n in (100_000, 200_000):
            tracemalloc.start()
            try:
                ardw.rate_diagnostic(prm, n, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 26 * 100_000

    @pytest.mark.parametrize("pid, sigma2, digest", [
        (3, 1e250, "df11e9b5f45462345af3e4f5446b755acf86f6aeb90812ca7ca6f2702e020d3c"),
        (3, 1e300, "75a1cefb87b610741802e7a3ff4f40ed249c523fb64cf3d3a04c0aa7527655d4"),
        (4, 1e250, "3f2e70a9004b5682d6d43827b68dce53267b96c3caa412975f5758e55df1f8e6"),
        (4, 1e300, "a74705fca397676de2063a3445bebf933077070eb33a6a84610945b1960a5a48"),
    ], ids=["p2_1e250", "p2_1e300", "p3_1e250", "p3_1e300"])
    def test_near_overflow_same_report_and_no_warning(self, pid, sigma2, digest):
        # paths of scale 1e125 and 1e150, whose Gram sums overflow at 1e300:
        # the reports of _ldl_solve's stage estimates, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ardw.rate_diagnostic(DEFAULT_SUITE[pid], 5000, seed=3,
                                          noise=NoiseSpec(sigma2=sigma2))
        assert hashlib.sha256(json_text(report).encode()).hexdigest() == digest

    def test_peak_is_the_simulated_path(self):
        # in path lengths of 8(n+1) bytes, at p = 3: simulate's x, eps and v
        # read 3.009, and a lag matrix and (rows, p, p) Gram products 5.36. A
        # padded copy of the path, made once simulate has returned and freed
        # eps and v, also reads 3.009: test_stage_loop_peak_is_one_block bounds it
        prm, n = DEFAULT_SUITE[4], 200_000
        ardw.rate_diagnostic(prm, 1000)  # loads the filter kernel before tracing
        tracemalloc.start()
        try:
            ardw.rate_diagnostic(prm, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 8 * (n + 1)

    @pytest.mark.parametrize("n", [100_000, 200_000])
    def test_stage_loop_peak_is_one_block(self, monkeypatch, n):
        # what rate_diagnostic holds beyond its path once the path exists, in
        # blocks of BLOCK_ELEMENTS doubles at p = 3, read 1.80 and 1.77 at
        # these n: it does not grow with n. A padded copy of the path (8 bytes
        # a step) read 3.82 and 5.32
        prm, base = DEFAULT_SUITE[4], []
        path = ardw.simulate(prm, n, seed=1)

        def simulated(*args, **kwargs):
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
            return path

        ardw.rate_diagnostic(prm, 1000)  # loads the filter kernel before tracing
        monkeypatch.setattr(ardw.montecarlo, "simulate", simulated)
        tracemalloc.start()
        try:
            ardw.rate_diagnostic(prm, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base[0] <= 2.6 * 8 * ardw.montecarlo.BLOCK_ELEMENTS

    def test_qsl_and_lil_behave(self):
        # single-path fluctuations of the log-averaged outer product are
        # large, so average the final matrix over several independent paths
        prm = params([0.5], 0.3)
        limits = ardw.limit_summary(prm)
        mats = []
        for seed in range(8):
            report = ardw.rate_diagnostic(prm, n_max=200_000, seed=seed)
            rows = report["checkpoints"]
            assert rows
            mats.append(np.array(rows[-1]["qsl_matrix"]))
            # iterated-logarithm normalization stays within a generous band
            for row in rows:
                assert row["lil_over_trace"] < 10.0
        mean_qsl = np.mean(mats, axis=0)
        rel = np.linalg.norm(mean_qsl - limits.Sigma_theta) / np.linalg.norm(
            limits.Sigma_theta
        )
        assert rel < 0.35

    def test_report_is_json_serializable(self):
        report = ardw.rate_diagnostic(params([0.5], 0.0), n_max=5000, seed=1)
        json.dumps(report)


def test_numpy_integer_counts_are_stored_as_int():
    # numpy integers in place of int give the same JSON text as int itself
    prm = params([0.5], 0.3)
    x = ardw.simulate(prm, 50, seed=2).x
    for result in [
        lambda c: ardw.fit(x, c(1)).to_dict(),
        lambda c: ardw.clt_diagnostic(prm, c(50), c(10)),
        lambda c: ardw.rate_diagnostic(prm, c(60)),
        lambda c: list(ardw.size_power_study(
            small_config(n_list=(c(50),), reps=c(100), master_seed=c(1))).rows),
    ]:
        assert json_text(result(np.int64)) == json_text(result(int))
