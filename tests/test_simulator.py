import importlib.machinery
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ardw
from ardw.simulate import (
    NoiseSpec, Trajectory, _generators, _linear_filter, _paths, _seed_words, derive_rng,
)


class ZeroNoise(NoiseSpec):
    """Degenerate noise hook for deterministic recursion tests."""

    def _block(self, rngs, m):
        return np.zeros((len(rngs), m))


def params(theta, rho, sigma2=1.0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return ardw.ModelParams(p=len(theta), theta=theta, rho=rho, sigma2=sigma2)


STANDARD = params([0.4, -0.3], 0.2)


def assert_recursion(traj: Trajectory):
    """The model recursion must hold exactly at every reported index."""
    prm = traj.params
    p = prm.p
    x, eps, v = traj.x, traj.eps, traj.v
    np.testing.assert_allclose(
        eps[1:], prm.rho * eps[:-1] + v[1:], rtol=0, atol=1e-12
    )
    assert x[0] == eps[0]
    for k in range(1, len(x)):
        lags = [x[k - i] if k - i >= 0 else 0.0 for i in range(1, p + 1)]
        assert x[k] == pytest.approx(prm.theta @ np.array(lags) + eps[k], abs=1e-10)


class TestSimulate:
    def test_zero_noise_gives_zero_path(self):
        traj = ardw.simulate(params([0.5], 0.0), 20, noise=ZeroNoise(), seed=1)
        np.testing.assert_allclose(traj.x, 0.0)

    def test_determinism(self):
        a = ardw.simulate(STANDARD, 100, seed=7)
        b = ardw.simulate(STANDARD, 100, seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.eps, b.eps)
        assert np.array_equal(a.v, b.v)

    def test_seeds_differ(self):
        a = ardw.simulate(STANDARD, 100, seed=7)
        b = ardw.simulate(STANDARD, 100, seed=8)
        assert not np.array_equal(a.x, b.x)

    def test_recursion_holds(self):
        assert_recursion(ardw.simulate(STANDARD, 200, seed=3))

    def test_recursion_holds_with_burn_in(self):
        assert_recursion(ardw.simulate(STANDARD, 200, seed=3, burn_in=500))

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(), NoiseSpec(family="uniform", sigma2=2.0),
         NoiseSpec(family="student_t", df=6.0), NoiseSpec(family="rademacher")],
        ids=["gaussian", "uniform", "student_t", "rademacher"],
    )
    @pytest.mark.parametrize("burn_in", [1, 2, 9, 40])
    def test_burn_in_matches_scalar_warm_up(self, noise, burn_in):
        # oracle: burn_in warm-up draws run through a scalar loop from the
        # stationary start, then n+1 reported innovations
        rng = np.random.default_rng(np.random.SeedSequence((5, 1)))
        warm = noise.draw(rng, burn_in)
        e = warm[0] / np.sqrt(1.0 - STANDARD.rho ** 2)
        for w in warm[1:]:
            e = STANDARD.rho * e + w
        v = noise.draw(rng, 61)
        traj = ardw.simulate(STANDARD, 60, noise=noise, seed=(5, 1), burn_in=burn_in)
        assert np.array_equal(traj.v, v)
        assert traj.eps[0] == STANDARD.rho * e + v[0]
        assert_recursion(traj)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            ardw.simulate(STANDARD, 3)

    def test_unstable_rejected(self):
        with pytest.raises(ardw.ArdwError):
            ardw.simulate(params([0.9, 0.2], 0.1), 50)

    def test_variance_matches_limit(self):
        prm = params([0.5], 0.3)
        lam0 = ardw.limit_summary(prm).Lambda[0]
        traj = ardw.simulate(prm, 10**6, seed=42)
        assert traj.x @ traj.x / len(traj.x) == pytest.approx(lam0, rel=0.01)

    def test_autocovariances_match_limits(self):
        lam = ardw.limit_summary(STANDARD).Lambda
        traj = ardw.simulate(STANDARD, 10**6, seed=9)
        x = traj.x
        for d in range(STANDARD.p + 2):
            emp = x[d:] @ x[: len(x) - d] / len(x)
            assert emp == pytest.approx(lam[d], rel=0.02, abs=0.02 * lam[0])

    def test_innovation_moments(self):
        traj = ardw.simulate(params([0.5], 0.3, sigma2=2.0), 10**6, seed=4)
        assert np.mean(traj.v) == pytest.approx(0.0, abs=0.01)
        assert np.var(traj.v) == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize(
        "family,kw",
        [("gaussian", {}), ("uniform", {}), ("student_t", {"df": 6.0}),
         ("rademacher", {})],
    )
    def test_distribution_free_limits(self, family, kw):
        prm = params([0.5], 0.3)
        lam0 = ardw.limit_summary(prm).Lambda[0]
        noise = NoiseSpec(family=family, sigma2=1.0, **kw)
        traj = ardw.simulate(prm, 200_000, noise=noise, seed=21)
        assert np.var(traj.v) == pytest.approx(1.0, rel=0.03)
        assert traj.x @ traj.x / len(traj.x) == pytest.approx(lam0, rel=0.05)


class TestNoiseSpec:
    def test_student_t_needs_fourth_moment(self):
        with pytest.raises(ValueError):
            NoiseSpec(family="student_t", df=4.0)

    @pytest.mark.parametrize(
        "kw",
        [{"sigma2": np.inf}, {"sigma2": np.nan}, {"df": np.inf}],
        ids=["sigma2_inf", "sigma2_nan", "df_inf"],
    )
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**kw)

    @pytest.mark.parametrize(
        "kw",
        [{"sigma2": "2"}, {"sigma2": True}, {"sigma2": None}, {"sigma2": np.array([1.0])},
         {"sigma2": 10**400}, {"sigma2": 2**70}, {"sigma2": [True]},
         {"df": None}, {"df": "5"}, {"df": False}, {"df": np.array(6.0)},
         {"df": 10**400}, {"df": 2**70}, {"df": ["6"]}],
        ids=["sigma2_str", "sigma2_bool", "sigma2_none", "sigma2_array",
             "sigma2_huge_int", "sigma2_int_past_uint64", "sigma2_bool_list",
             "df_none", "df_str", "df_bool", "df_0d_array",
             "df_huge_int", "df_int_past_uint64", "df_numeric_string_list"],
    )
    def test_non_real_rejected(self, kw):
        name, value = next(iter(kw.items()))
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            NoiseSpec(family="student_t", **kw)

    def test_real_numbers_stored_as_float(self):
        noise = NoiseSpec(family="student_t", sigma2=np.int64(2), df=np.float32(6.5))
        assert (noise.sigma2, noise.df) == (2.0, 6.5)
        assert type(noise.sigma2) is float and type(noise.df) is float

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseSpec(family="cauchy")

    def test_rademacher_exact_scale(self):
        rng = np.random.default_rng(np.random.SeedSequence(0))
        v = NoiseSpec(family="rademacher", sigma2=4.0).draw(rng, 1000)
        assert set(np.unique(v)) == {-2.0, 2.0}

    def test_unit_gaussian_draws_are_the_raw_normals(self):
        # sigma2 = 1 skips the scaling: x * 1.0 is x, bit for bit
        want = derive_rng(3).standard_normal(50)
        assert NoiseSpec().draw(derive_rng(3), 50).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "student_t", "rademacher"])
    def test_block_rows_are_the_one_generator_draws(self, family):
        # the block that simulation draws scales all rows at once; row i must
        # still be what its generator alone draws
        noise = NoiseSpec(family, sigma2=2.5, df=6)
        block = noise._block([derive_rng(1), derive_rng(2), derive_rng(3)], 40)
        assert block.shape == (3, 40)
        for i, row in enumerate(block):
            assert row.tobytes() == noise.draw(derive_rng(i + 1), 40).tobytes()
        assert noise._block([derive_rng(1), derive_rng(2)], 0).shape == (2, 0)

    @pytest.mark.parametrize("rng, size", [
        (None, 3), (3, 3), ([None], (1, 3)), ([derive_rng(1)], (1, 5)),
        ([derive_rng(1), derive_rng(2)], (2, 3)),
    ], ids=["none", "int", "list_of_none", "list_of_one", "list_of_two"])
    def test_rng_must_be_a_generator(self, rng, size):
        # a list of generators is the block that only simulation draws
        with pytest.raises(ValueError, match="^rng must be a numpy Generator, got "):
            NoiseSpec().draw(rng, size)

    @pytest.mark.parametrize("size, message", [
        ("3", "size must be an integer, got '3'"),
        (2.5, "size must be an integer, got 2.5"),
        (True, "size must be an integer, got True"),
        (-1, "size must be >= 0, got -1"),
        ((1, 3), "size must be an integer, got (1, 3)"),
    ], ids=["str", "float", "bool", "negative", "pair"])
    def test_size_must_be_a_count(self, size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseSpec().draw(derive_rng(1), size)

    def test_numpy_integer_sizes_and_zero_draws_are_accepted(self):
        assert NoiseSpec().draw(derive_rng(1), np.int64(0)).shape == (0,)
        assert NoiseSpec().draw(derive_rng(1), np.int64(3)).shape == (3,)

    def test_uniform_half_width_must_be_finite(self):
        # sqrt(3 sigma2) is the half-width of the uniform support
        with pytest.raises(ValueError, match=r"uniform noise needs sqrt\(3 sigma2\) finite"):
            NoiseSpec(family="uniform", sigma2=1e308)
        for noise in (NoiseSpec(sigma2=1e308), NoiseSpec(family="uniform", sigma2=5e307)):
            rng = np.random.default_rng(np.random.SeedSequence(0))
            assert np.isfinite(noise.draw(rng, 10)).all()

    def test_uniform_support(self):
        rng = np.random.default_rng(np.random.SeedSequence(0))
        v = NoiseSpec(family="uniform", sigma2=3.0).draw(rng, 100_000)
        assert np.max(np.abs(v)) <= 3.0
        assert np.var(v) == pytest.approx(3.0, rel=0.02)

    @pytest.mark.parametrize("call", [
        lambda noise: ardw.simulate(STANDARD, 50, noise=noise),
        lambda noise: ardw.clt_diagnostic(STANDARD, 50, 10, noise=noise),
        lambda noise: ardw.rate_diagnostic(STANDARD, 100, noise=noise),
    ], ids=["simulate", "clt_diagnostic", "rate_diagnostic"])
    @pytest.mark.parametrize("noise", ["gaussian", {"family": "uniform"}], ids=["str", "dict"])
    def test_noise_must_be_a_noise_spec_or_none(self, call, noise):
        with pytest.raises(ValueError) as info:
            call(noise)
        assert str(info.value) == f"noise must be a NoiseSpec or None, got {noise!r}"


class TestFilterKernel:
    """simulate runs scipy's filter kernel without importing scipy.signal; both
    of its filters must give scipy.signal.lfilter's bits, for one row (with
    its own zi) and for a block of _paths (one zi per row)."""

    @pytest.mark.parametrize("seed", [4, [4, (1, 2), 9]], ids=["one_row", "block"])
    @pytest.mark.parametrize("rho", [-0.95, 0.3, 0.999])
    @pytest.mark.parametrize("theta", [[0.9], [-0.5, 0.3], [0.2, -0.3, 0.4]])
    def test_simulate_matches_lfilter(self, seed, rho, theta):
        from scipy.signal import lfilter

        prm, noise = params(theta, rho), NoiseSpec("student_t", df=5.5)
        if isinstance(seed, list):
            x, eps, v = _paths(prm, 200, noise, seed, 0)
        else:
            traj = ardw.simulate(prm, 200, noise, seed=seed)
            x, eps, v = traj.x, traj.eps, traj.v
        ref_eps, _ = lfilter([1.0], [1.0, -rho], v[..., 1:], zi=rho * eps[..., :1])
        ref_x = lfilter([1.0], np.concatenate(([1.0], -prm.theta)), eps)
        assert eps[..., 1:].tobytes() == ref_eps.tobytes()
        assert x.tobytes() == ref_x.tobytes()

    def test_missing_kernel_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, name, path=None, target=None: None))
        with pytest.raises(ImportError, match=r"scipy\.signal\._sigtools was not found"):
            _linear_filter.__wrapped__()


class TestSerialization:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_csv_round_trip_bit_exact(self, tmp_path, newline):
        # to_csv ends lines with LF; files written with CRLF line ends still load
        traj = ardw.simulate(STANDARD, 50, seed=13, burn_in=10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        text = path.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n")
        path.write_bytes(text.replace("\n", newline).encode())
        back = Trajectory.from_csv(path)
        assert np.array_equal(back.x, traj.x)
        assert np.array_equal(back.eps, traj.eps)
        assert np.array_equal(back.v, traj.v)
        assert back.seed == traj.seed
        assert back.burn_in == traj.burn_in
        assert back.params.theta == pytest.approx(traj.params.theta)

    @pytest.mark.parametrize("change", [
        {"x": None, "eps": None, "v": None},
        {"x": np.zeros((2, 51))},
        {"eps": np.zeros(50)},
        {"v": np.zeros(51, dtype=np.float32)},
        {"x": [0.0] * 51},
    ], ids=["none", "two_d", "mismatched_lengths", "float32", "list"])
    def test_paths_must_be_1d_float_arrays_of_one_length(self, change):
        traj = ardw.simulate(STANDARD, 50, seed=13)
        paths = {"x": traj.x, "eps": traj.eps, "v": traj.v, **change}
        with pytest.raises(ValueError, match="^x, eps and v must be 1-D float arrays of one "
                                             "length, got "):
            Trajectory(**paths, params=STANDARD, seed=13)

    @pytest.mark.parametrize("seed, burn_in", [("x", 0), (1.5, 0), ((), 0), ((1, "x"), 0),
                                               (1, -1), (1, 2.0), (1, None)],
                             ids=["seed_str", "seed_float", "seed_empty", "seed_tuple_str",
                                  "burn_in_negative", "burn_in_float", "burn_in_none"])
    def test_seed_and_burn_in_checked_as_simulate_checks_them(self, seed, burn_in):
        traj = ardw.simulate(STANDARD, 50, seed=13)
        with pytest.raises(ValueError, match="seed|burn_in"):
            Trajectory(x=traj.x, eps=traj.eps, v=traj.v, params=STANDARD, seed=seed,
                       burn_in=burn_in)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edit, message", [
        (lambda s: {k: v for k, v in s.items() if k != "seed"}, "malformed trajectory sidecar"),
        (lambda s: list(s.items()), "malformed trajectory sidecar"),
        (lambda s: "abc", "malformed trajectory sidecar"),
        (lambda s: {**s, "colour": 1}, "malformed trajectory sidecar"),
        (lambda s: {**s, "noise": 3}, "malformed trajectory sidecar"),
        (lambda s: {**s, "seed": "x"}, "seed must be an integer"),
        (lambda s: {**s, "seed": [1, 1.5]}, "seed must be an integer"),
        (lambda s: {**s, "burn_in": -1}, "burn_in must be >= 0"),
    ], ids=["no_seed", "list", "string", "unknown_key", "noise_int", "seed_str",
            "seed_list_float", "burn_in_negative"])
    def test_malformed_sidecar_raises_value_error(self, tmp_path, edit, message):
        path = tmp_path / "traj.csv"
        ardw.simulate(STANDARD, 20, seed=4).to_csv(path)
        sidecar = path.with_suffix(".csv.json")
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        with pytest.raises(ValueError, match=message):
            Trajectory.from_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edit", [
        lambda lines: [line.rsplit(",", 1)[0] for line in lines],
        lambda lines: lines[:1],
        lambda lines: lines[:1] + ["", ""],
        lambda lines: [],
    ], ids=["two_columns", "header_only", "blank_rows", "empty"])
    def test_series_without_rows_of_three_raises_value_error(self, tmp_path, edit):
        # and without numpy's warning of a file that holds no data
        path = tmp_path / "traj.csv"
        ardw.simulate(STANDARD, 20, seed=4).to_csv(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match="must hold a header line and rows of x, eps "
                                             "and v"):
            Trajectory.from_csv(path)

    def test_tuple_seed_round_trip(self, tmp_path):
        traj = ardw.simulate(STANDARD, 50, seed=(7, 0, 50, 3))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert back.seed == traj.seed == (7, 0, 50, 3)

    @given(st.sampled_from(["gaussian", "uniform", "student_t", "rademacher"]),
           st.floats(0.1, 10.0), st.floats(4.1, 30.0), st.floats(0.1, 10.0),
           st.integers(0, 30),
           st.integers(0, 2**70) | st.tuples(st.integers(0, 2**40), st.integers(0, 99)))
    @example("student_t", 1.0, 5.0, 4.0, 0, 1)  # the family the old sidecar lost
    def test_sidecar_simulates_the_path_again(self, tmp_path_factory, family, sigma2,
                                              df, model_sigma2, burn_in, seed):
        # the sidecar holds everything simulate draws with, so the path it
        # describes comes back bit for bit
        prm = params([0.4, -0.3], 0.2, sigma2=model_sigma2)
        noise = NoiseSpec(family, sigma2=sigma2, df=df)
        traj = ardw.simulate(prm, 40, noise=noise, seed=seed, burn_in=burn_in)
        path = tmp_path_factory.mktemp("sidecar") / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert back.noise == noise
        again = ardw.simulate(back.params, len(back.x) - 1, noise=back.noise,
                              seed=back.seed, burn_in=back.burn_in)
        for name in ("x", "eps", "v"):
            assert getattr(again, name).tobytes() == getattr(traj, name).tobytes()

    def test_sidecar_records_default_noise(self, tmp_path):
        traj = ardw.simulate(params([0.5], 0.3, sigma2=2.5), 20, seed=4)
        assert traj.noise == NoiseSpec(sigma2=2.5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        sidecar = json.loads(path.with_suffix(".csv.json").read_text())
        assert sidecar["noise"] == {"family": "gaussian", "sigma2": 2.5, "df": 5.0}
        assert list(sidecar) == ["p", "theta", "rho", "sigma2", "noise", "seed", "burn_in"]

    def test_sidecar_without_noise_reads_as_default(self, tmp_path):
        # a sidecar written before it recorded the noise
        traj = ardw.simulate(params([0.5], 0.3, sigma2=2.5), 20, seed=4)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        sidecar_path = path.with_suffix(".csv.json")
        sidecar = json.loads(sidecar_path.read_text())
        del sidecar["noise"]
        sidecar_path.write_text(json.dumps(sidecar))
        back = Trajectory.from_csv(path)
        assert back.noise == NoiseSpec(sigma2=2.5)
        again = ardw.simulate(back.params, 20, noise=back.noise, seed=4)
        assert again.x.tobytes() == traj.x.tobytes()


class TestSeedChecks:
    def test_numpy_int_seed_round_trips(self, tmp_path):
        traj = ardw.simulate(STANDARD, 50, seed=np.int64(3), burn_in=np.int32(4))
        assert type(traj.seed) is int and type(traj.burn_in) is int
        assert np.array_equal(traj.x, ardw.simulate(STANDARD, 50, seed=3, burn_in=4).x)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert (back.seed, back.burn_in) == (3, 4)
        assert np.array_equal(back.x, traj.x)

    def test_numpy_ints_in_tuples_are_stored_as_int(self):
        traj = ardw.simulate(STANDARD, 50, seed=(np.uint8(7), 1))
        assert traj.seed == (7, 1)
        assert [type(v) for v in traj.seed] == [int, int]

    @pytest.mark.parametrize("kw", [
        {"n": 50.0}, {"burn_in": 2.0}, {"burn_in": True}, {"seed": 1.5},
        {"seed": True}, {"seed": (3, True)}, {"seed": (3, 1.0)}, {"seed": [1, 1.5]},
        {"seed": ()}, {"seed": [()]}, {"seed": ((1, 2),)}, {"seed": "3"},
    ], ids=["n_float", "burn_in_float", "burn_in_bool", "seed_float", "seed_bool",
            "tuple_bool", "tuple_float", "list_float", "empty_tuple", "list_empty_tuple",
            "nested_tuple", "seed_str"])
    def test_non_integers_rejected(self, kw):
        with pytest.raises(ValueError):
            ardw.simulate(STANDARD, **{"n": 50, **kw})

    @pytest.mark.parametrize("seed", [-1, (5, -2), (0, np.int64(-3)), np.int64(-4)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError) as info:
            ardw.simulate(STANDARD, 50, seed=seed)
        assert str(info.value) == f"seed must be >= 0, got {min(np.ravel(seed))}"

    def test_derive_rng_checks_its_ints(self):
        with pytest.raises(ValueError):
            derive_rng(1, 2.0)


WORD = st.integers(0, 2**130 - 1)
SEED = st.one_of(WORD, st.lists(WORD, min_size=1, max_size=6).map(tuple))


class TestSeeder:
    """The block seeder re-implements numpy's SeedSequence hash; numpy is the
    oracle, so a numpy release that changes the hash fails here."""

    @example([0])
    @example([2**32 - 1])
    @example([2**32])
    @example([2**64])
    @example([(1203, 4, 2000, 999)])
    @example([0, 2**40, (1, 2**64), (3,)])
    @example([(1, 2, 3, 4, 5), 7, (2**64, 2**40, 9)])
    @given(st.lists(SEED, min_size=1, max_size=8))
    def test_matches_seed_sequence(self, seeds):
        words = _seed_words(seeds)
        for seed, row, rng in zip(seeds, words, _generators(seeds)):
            sequence = np.random.SeedSequence(seed)
            assert np.array_equal(row, sequence.generate_state(4, np.uint64))
            expected = np.random.default_rng(sequence)
            assert np.array_equal(rng.integers(0, 2**63, 4), expected.integers(0, 2**63, 4))

    def test_import_adds_no_numpy_random(self):
        # the seeder registers with numpy.random only when it seeds, so
        # import ardw loads it only if import numpy already did (numpy < 2)
        env = dict(os.environ, PYTHONPATH=str(Path(ardw.__file__).parents[1]))
        code = (
            "import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import ardw; print(before, 'numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        before, after = out.stdout.split()
        assert after == before

    def test_block_rows_do_not_depend_on_their_neighbours(self):
        seeds = [(7, 0, 50, 3), 11, (2**40, 1), 11, (5,), 2**33]
        x, _, v = _paths(STANDARD, 40, None, seeds, 3)
        for i, seed in enumerate(seeds):
            one = ardw.simulate(STANDARD, 40, seed=seed, burn_in=3)
            assert np.array_equal(x[i], one.x)
            assert np.array_equal(v[i], one.v)
        assert np.array_equal(x[1], x[3])
