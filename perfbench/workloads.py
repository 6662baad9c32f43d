"""The benchmark's workloads.

Each workload loads one part of ardw and leaves the others nearly idle:

- study_serial / study_pool: the paper's size/power table
  (`size_power_study`, DEFAULT_SUITE x n in {100, 500, 2000} x 1000 reps) at
  workers 1 and 2. Time goes to simulate, estimators and serial_tests; only
  the pool variant exercises the process pool in montecarlo.
- long_path: one n = 10**6 path per DEFAULT_SUITE set through simulate, fit,
  run_tests and rate_diagnostic: the same layers on one long array, and the
  memory-heavy cumulative sums of the rate diagnostic.
- oneshot: cold `python -m ardw.cli` calls (import-bound) plus warm
  `limit_summary` calls over a seeded grid of stable parameter sets.

Every workload offers `setup(seed)`, `run(inputs, seconds, tally)` for the
end-to-end metrics and `trace(inputs, seconds, tally)` for the per-layer
metrics. Inputs are made from the seed only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from ardw import (
    DEFAULT_SUITE,
    ModelParams,
    NoiseSpec,
    StudyConfig,
    fit,
    limit_summary,
    lyapunov_lambda_oracle,
    rate_diagnostic,
    read_series,
    run_tests,
    simulate,
    size_power_study,
)

from layers import (
    LIMIT_STAGES,
    TEST_NAMES,
    Clock,
    PeakAlloc,
    percentile,
    replay_limit_theory,
    replay_replication,
)

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())

GRID_N = (100, 500, 2000)
REPS = 1000
STUDY_REPS = len(DEFAULT_SUITE) * len(GRID_N) * REPS
LONG_N = 10**6
SERIES_N = 2000
LIMIT_GRID_PER_P = 300
#: replays of the oneshot series' replication and rate diagnostic in a trace
SERIES_REPLAYS = 200
#: repeats of the five DEFAULT_SUITE sets when timing limit_theory stages,
#: so limit_summary's p99 has more than ten samples beyond it
LIMIT_REPEATS = 200
#: fewest timed calls per run, whatever --seconds says, so a median exists
MIN_CALLS = 3
#: fewest oneshot cold calls per run: two of each subcommand
ONESHOT_MIN_CALLS = 8
#: reference_kernel() calls per speed sample, and the kernel's median time at
#: the speed timed figures are reported at (about that of a 2-core x86-64
#: host with Python 3.11 and numpy 2.4)
KERNEL_CALLS = 150
KERNEL_NOMINAL_S = 0.0025
#: relative tolerance for long-path estimates against the golden references
LONG_PATH_RTOL = 1e-9
#: half-width, in asymptotic standard errors, of the band the long-path
#: estimates must fall in around their closed-form limits
LONG_PATH_Z = 6.0


class Tally:
    """Attempted and failed operations; a failure is an exception, a
    non-zero exit or an output that fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def reference_kernel(x: np.ndarray, A: np.ndarray) -> float:
    """Fixed work that uses nothing of ardw: small-array numpy calls and
    interpreter work, as in a replication, and one pass over a 512 KiB
    array, as in a long path."""
    s = 0.0
    for i in range(100):
        y = x[: 200 + i] * 1.5 - 0.25
        s += float(y @ y) + float(np.linalg.solve(A + (i % 3 + 1) * np.eye(3), y[:3])[0])
        s += len(repr((i, s)))
    return s + float(np.cumsum(x).sum())


class HostSpeed:
    """How fast the host runs a fixed kernel, sampled between timed calls.

    The machine this benchmark was defined on shares its cores with other
    tenants: the same work took up to twice as long from one second, or one
    minute, to the next. Every timed figure of a run is therefore scaled by
    `factor()`, KERNEL_NOMINAL_S over the kernel's median time in the run,
    which expresses it at the speed where the kernel takes KERNEL_NOMINAL_S.
    The kernel is the benchmark's own code, so a change to ardw cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(1 << 16)
        self._A = rng.standard_normal((3, 3))
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        for _ in range(KERNEL_CALLS):
            t = perf_counter()
            reference_kernel(self._x, self._A)
            self.kernel_s.append(perf_counter() - t)

    def factor(self) -> float:
        return KERNEL_NOMINAL_S / statistics.median(self.kernel_s)


def _timed_loop(seconds: float, op, speed: HostSpeed, min_calls: int = MIN_CALLS) -> list:
    """Call op() until `seconds` have passed and at least min_calls were made,
    sampling the host's speed before the first call and after each; returns
    the op results."""
    deadline = perf_counter() + seconds
    out = []
    speed.sample()
    while perf_counter() < deadline or len(out) < min_calls:
        out.append(op())
        speed.sample()
    return out


def _layer_metrics(clock: Clock) -> dict:
    """Per-call times and waste fractions of simulate, estimators and
    serial_tests from one replay clock."""
    fits = clock.calls["estimators.fit"]
    m = {
        "simulate.draws_us": clock.us_per_call("simulate.draws"),
        "simulate.simulate_us": clock.us_per_call("simulate.simulate"),
        "estimators.fit_us": clock.us_per_call("estimators.fit"),
        "estimators.fit_failed_frac": clock.events["estimators.fit_failed"] / fits,
    }
    for name in TEST_NAMES:
        m[f"serial_tests.{name}_us"] = clock.us_per_call(f"serial_tests.{name}")
        m[f"serial_tests.{name}_inapplicable_frac"] = (
            clock.events[f"serial_tests.{name}_inapplicable"] / fits
        )
    return m


def _limit_metrics(params_list) -> dict:
    clock = Clock()
    summary_s = replay_limit_theory(params_list, clock)
    m = {f"limit_theory.{s}_us": clock.us_per_call(f"limit_theory.{s}") for s in LIMIT_STAGES}
    m["limit_theory.limit_summary_us"] = 1e6 * statistics.median(summary_s)
    m["limit_theory.limit_summary_us_p99"] = 1e6 * percentile(summary_s, 99)
    return m


#: the replay stages a study replication itself runs (draws are inside simulate)
BUSY_STAGES = ("simulate.simulate", "estimators.fit",
               *(f"serial_tests.{t}" for t in TEST_NAMES))


def _trace_overhead(replay_wall: float, clock: Clock) -> float:
    """Replay time outside the timed spans, per unit of timed span time."""
    spanned = sum(clock.seconds.values())
    return (replay_wall - spanned) / spanned


# ---------------------------------------------------------------- studies


class Study:
    """size_power_study over the fixed grid at a fixed worker count."""

    def __init__(self, name: str, workers: int):
        self.name = name
        self.workers = workers

    def setup(self, seed: int) -> StudyConfig:
        return StudyConfig(
            params_list=DEFAULT_SUITE, n_list=GRID_N, reps=REPS, master_seed=seed,
        )

    def _study(self, config: StudyConfig, workers: int) -> tuple[float, str | None]:
        t = perf_counter()
        try:
            csv = size_power_study(config, workers=workers).to_csv()
        except Exception as exc:  # counted as a failed operation
            print(f"{self.name}: study raised {exc!r}", file=sys.stderr)
            csv = None
        return perf_counter() - t, csv

    def _measure(self, config, seconds, tally, speed) -> tuple[list[float], str]:
        """Wall times of the successful studies, and the reference table."""
        # warm-up: first calls into numpy and the pool machinery
        size_power_study(
            StudyConfig(params_list=DEFAULT_SUITE[:1], n_list=(100,), reps=100),
            workers=self.workers,
        )
        results = _timed_loop(seconds, lambda: self._study(config, self.workers), speed)
        golden = GOLDEN["study_csv_sha256"].get(str(config.master_seed))
        if golden is None and self.workers > 1:
            # no digest for this seed: the serial table is the reference
            reference = self._study(config, 1)[1]
        else:
            reference = next((csv for _, csv in results if csv is not None), None)
        check_table(reference, config, tally)
        if golden is not None:
            tally.check(reference is not None and _sha256(reference) == golden,
                        f"{self.name}: table differs from its golden digest")
        for _, csv in results:
            tally.check(csv is not None and csv == reference,
                        f"{self.name}: table differs from the reference table")
        return [w for w, csv in results if csv is not None], reference

    def run(self, config, seconds, tally, speed) -> dict:
        walls, _ = self._measure(config, seconds, tally, speed)
        wall = statistics.median(walls) * speed.factor()
        return {"work_per_s": STUDY_REPS / wall, "call_s_p50": wall}

    def trace(self, config, seconds, tally, speed) -> tuple[dict, list[str]]:
        walls, table = self._measure(config, seconds, tally, speed)
        wall = statistics.median(walls)

        per_n = {n: Clock() for n in config.n_list}
        counts = {}
        t0 = perf_counter()
        for pid, params in enumerate(config.params_list):
            for n in config.n_list:
                cell = counts.setdefault((pid, n), {t: [0, 0] for t in config.tests})
                for rep in range(config.reps):
                    _, _, flags = replay_replication(
                        params, n, (config.master_seed, pid, n, rep), config.noise,
                        config.level, per_n[n], config.tests,
                    )
                    for name, (rej, inap) in flags.items():
                        cell[name][0] += rej
                        cell[name][1] += inap
        replay_wall = perf_counter() - t0
        tally.check(
            table is not None and replay_matches_table(counts, table, config.reps),
            f"{self.name}: replayed reject/inapplicable counts differ from the table",
        )

        clock = Clock()
        for c in per_n.values():
            clock.merge(c)
        busy = clock.busy(BUSY_STAGES)
        m = _layer_metrics(clock)
        m["montecarlo.overhead_us"] = 1e6 * (self.workers * wall - busy) / STUDY_REPS
        m["montecarlo.pool_efficiency"] = busy / (self.workers * wall)
        m["trace_overhead_frac"] = _trace_overhead(replay_wall, clock)
        m.update(_limit_metrics(list(config.params_list) * LIMIT_REPEATS))

        with PeakAlloc() as peaks:
            for pid, params in enumerate(config.params_list):
                for n in config.n_list:
                    peaks.replication(
                        params, n, (config.master_seed, pid, n, 0), config.noise,
                        config.level,
                    )
            # size_power_study works cell by cell, so its peak is that of its
            # largest cell
            largest = StudyConfig(
                params_list=(max(config.params_list, key=lambda q: q.p),),
                n_list=(max(config.n_list),), reps=config.reps,
                master_seed=config.master_seed,
            )
            peaks.call("montecarlo", size_power_study, largest, workers=self.workers)
        for layer in ("simulate", "estimators", "serial_tests", "montecarlo"):
            m[f"{layer}.peak_alloc_mb"] = peaks.mb[layer]

        lines = [f"per-n replay ({config.reps} reps x {len(config.params_list)} sets per n):"]
        for n, c in per_n.items():
            layer = _layer_metrics(c)
            lines.append(
                f"  n={n}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in layer.items()
                    if k.endswith("_us") or v > 0
                )
            )
        return m, lines


def check_table(csv: str | None, config: StudyConfig, tally: Tally) -> None:
    """Checks on a size/power table that hold for any master seed: its shape,
    its standard errors, and, at the largest n, the chi-square test's size
    within five Monte-Carlo standard errors of the level under the null and
    its power above that band under serial correlation."""
    if not tally.check(csv is not None, "study: no table to check"):
        return
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    expected = [
        (str(pid), str(n), name)
        for pid in range(len(config.params_list))
        for n in config.n_list
        for name in config.tests
    ]
    tally.check([tuple(r[:3]) for r in rows] == expected, "study: rows out of grid order")
    stderr_ok = all(
        float(r[5]) == float(np.sqrt(float(r[3]) * (1.0 - float(r[3])) / config.reps))
        and int(r[6]) == config.reps
        for r in rows
    )
    tally.check(stderr_ok, "study: mc_stderr or reps column inconsistent")
    n = max(config.n_list)
    band = 5.0 * math.sqrt(config.level * (1.0 - config.level) / config.reps)
    for pid, params in enumerate(config.params_list):
        row = next(r for r in rows if r[:3] == [str(pid), str(n), "dw_chi2"])
        rate = float(row[3])
        if params.rho == 0.0:
            tally.check(abs(rate - config.level) <= band,
                        f"study: dw_chi2 size {rate} at params {pid}, n={n}")
        else:
            tally.check(rate > config.level + band,
                        f"study: dw_chi2 power {rate} at params {pid}, n={n}")


def replay_matches_table(counts: dict, csv: str, reps: int) -> bool:
    for line in csv.splitlines()[1:]:
        pid, n, name, rej, inap = line.split(",")[:5]
        nrej, ninap = counts[(int(pid), int(n))][name]
        if rej != f"{nrej / reps:.17g}" or inap != f"{ninap / reps:.17g}":
            return False
    return True


# -------------------------------------------------------------- long path


def _long_path(params: ModelParams, seed: tuple) -> dict:
    traj = simulate(params, LONG_N, seed=seed)
    f = fit(traj.x, params.p)
    outcomes = run_tests(traj.x, f)
    rate = rate_diagnostic(params, LONG_N, seed=seed)
    return {
        "fit": f.to_dict(),
        "tests": [o.to_dict() for o in outcomes],
        "rate": rate,
    }


class LongPath:
    name = "long_path"

    def setup(self, seed: int) -> list:
        return [(params, (seed, pid)) for pid, params in enumerate(DEFAULT_SUITE)]

    def _measure(self, paths, seconds, tally, speed) -> tuple[list[float], list]:
        """Wall times of the passes, and the first pass's outputs."""
        def one_pass():
            walls, outs = [], []
            for params, seed in paths:
                t = perf_counter()
                try:
                    outs.append(_long_path(params, seed))
                except Exception as exc:  # counted as a failed operation
                    print(f"long_path: path {seed} raised {exc!r}", file=sys.stderr)
                    outs.append(None)
                walls.append(perf_counter() - t)
            return walls, outs

        passes = _timed_loop(seconds, one_pass, speed)
        first = passes[0][1]
        for _, outs in passes:
            for ref, out in zip(first, outs):
                tally.check(
                    out is not None and _canonical(out) == _canonical(ref),
                    "long_path: a pass differs from the first",
                )
        check_long_paths(paths, first, tally)
        return [sum(walls) for walls, _ in passes], first

    def run(self, paths, seconds, tally, speed) -> dict:
        pass_walls, _ = self._measure(paths, seconds, tally, speed)
        wall = statistics.median(pass_walls) * speed.factor()
        return {"work_per_s": len(paths) * LONG_N / wall, "call_s_p50": wall}

    def trace(self, paths, seconds, tally, speed) -> tuple[dict, list[str]]:
        _, first = self._measure(paths, seconds, tally, speed)
        clock, mc = Clock(), Clock()
        t0 = perf_counter()
        for (params, seed), ref in zip(paths, first):
            noise = NoiseSpec(sigma2=params.sigma2)
            _, f, flags = replay_replication(params, LONG_N, seed, noise, 0.05, clock)
            t = perf_counter()
            rate = rate_diagnostic(params, LONG_N, seed=seed)
            t1 = perf_counter()
            limit_summary(params)
            t2 = perf_counter()
            mc.add("montecarlo.rate_diagnostic", t1 - t)
            mc.add("limit_theory.limit_summary", t2 - t1)
            tally.check(
                ref is not None and f is not None
                and _canonical(f.to_dict()) == _canonical(ref["fit"])
                and _canonical(rate) == _canonical(ref["rate"])
                and [
                    (o["reject"], "inapplicable" in o["warnings"]) for o in ref["tests"]
                ] == [flags[name] for name in TEST_NAMES],
                f"long_path: replay of path {seed} differs from the timed run",
            )
        replay_wall = perf_counter() - t0
        m = _layer_metrics(clock)
        # rate_diagnostic re-simulates the path and calls limit_summary; its
        # own work is the rest
        rate_s = mc.seconds["montecarlo.rate_diagnostic"]
        lower = clock.seconds["simulate.simulate"] + mc.seconds["limit_theory.limit_summary"]
        m["montecarlo.overhead_us"] = 1e6 * (rate_s - lower) / len(paths)
        m["montecarlo.pool_efficiency"] = lower / rate_s
        clock.merge(mc)
        m["trace_overhead_frac"] = _trace_overhead(replay_wall, clock)
        m.update(_limit_metrics([p for p, _ in paths] * LIMIT_REPEATS))

        with PeakAlloc() as peaks:
            for params, seed in paths:
                peaks.replication(params, LONG_N, seed, NoiseSpec(sigma2=params.sigma2), 0.05)
                peaks.call("montecarlo", rate_diagnostic, params, LONG_N, seed=seed)
        for layer in ("simulate", "estimators", "serial_tests", "montecarlo"):
            m[f"{layer}.peak_alloc_mb"] = peaks.mb[layer]
        lines = [
            "per-path stage seconds (n = 10**6): "
            f"simulate {clock.seconds['simulate.simulate'] / len(paths):.4g}, "
            f"fit {clock.seconds['estimators.fit'] / len(paths):.4g}, "
            f"run_tests {clock.busy([f'serial_tests.{t}' for t in TEST_NAMES]) / len(paths):.4g}, "
            f"rate_diagnostic {rate_s / len(paths):.4g}",
        ]
        return m, lines


def check_long_paths(paths, outs, tally: Tally) -> None:
    """Estimates within LONG_PATH_Z asymptotic standard errors of their
    closed-form limits for any seed, the chi-square test rejecting under
    serial correlation, and, for a shipped seed, the estimates of this
    package's reference commit within LONG_PATH_RTOL."""
    golden = GOLDEN["long_path"]
    for (params, seed), out in zip(paths, outs):
        if not tally.check(out is not None, f"long_path: path {seed} has no output"):
            continue
        lim = limit_summary(params)
        f = out["fit"]
        se = np.sqrt(np.diag(lim.Sigma_theta) / LONG_N)
        err = np.abs(np.array(f["theta_hat"]) - lim.theta_star)
        tally.check(
            bool(np.all(err <= LONG_PATH_Z * se))
            and abs(f["rho_hat"] - lim.rho_star) <= LONG_PATH_Z * math.sqrt(lim.sigma2_rho / LONG_N)
            and abs(f["dw"] - lim.d_star) <= LONG_PATH_Z * math.sqrt(lim.sigma2_D / LONG_N),
            f"long_path: path {seed} estimates far from their limits",
        )
        if params.rho != 0.0:
            dw = next(o for o in out["tests"] if o["name"] == "dw_chi2")
            tally.check(dw["reject"], f"long_path: dw_chi2 misses rho={params.rho}")
        ref = golden.get(str(seed[0]))
        if ref is not None:
            want = ref[seed[1]]
            got = [*f["theta_hat"], f["rho_hat"], f["dw"]]
            tally.check(
                bool(np.allclose(got, want, rtol=LONG_PATH_RTOL, atol=0.0)),
                f"long_path: path {seed} differs from its golden estimates",
            )


# ---------------------------------------------------------------- oneshot


def limit_grid(seed: int) -> list[ModelParams]:
    """LIMIT_GRID_PER_P random stable parameter sets for each p in {1, 2, 3},
    inside ||theta||_1 <= 0.9, |rho| <= 0.9 and |theta_p| > 0.047."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    grid = []
    for p in (1, 2, 3):
        for _ in range(LIMIT_GRID_PER_P):
            w = rng.dirichlet(np.ones(p)) * rng.choice((-1.0, 1.0), p)
            theta = rng.uniform(0.1, 0.9) * w
            if abs(theta[-1]) < 0.05:
                theta[-1] = math.copysign(0.05, theta[-1])
                theta *= min(1.0, 0.9 / np.abs(theta).sum())
            grid.append(ModelParams(p=p, theta=theta, rho=rng.uniform(-0.9, 0.9)))
    return grid


def _model_argv(params: ModelParams) -> list[str]:
    """--theta and --rho arguments that parse back to exactly these values."""
    return ["--theta", ",".join(repr(float(t)) for t in params.theta),
            "--rho", repr(params.rho)]


class OneShot:
    name = "oneshot"
    #: the parameter set of the series the fit/test/diagnose calls work on
    SERIES_PARAMS = DEFAULT_SUITE[4]

    def __init__(self, work_dir: Path, env: dict):
        self.work_dir = work_dir
        self.env = env

    def setup(self, seed: int) -> dict:
        params = self.SERIES_PARAMS
        series = self.work_dir / "series.csv"
        simulate(params, SERIES_N, seed=(seed, 0)).to_csv(series)
        return {
            "seed": seed,
            "series": series,
            "grid": limit_grid(seed),
            "diagnose": ["diagnose", "--kind", "rate", *_model_argv(params),
                         "--n", str(SERIES_N), "--seed", str(seed)],
            "fit": ["fit", "--input", str(series), "--p", str(params.p)],
            "test": ["test", "--input", str(series), "--p", str(params.p)],
        }

    def _cold(self, argv) -> tuple[float, subprocess.CompletedProcess]:
        t = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ardw.cli", *argv], env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return perf_counter() - t, proc

    def _measure(self, inputs, seconds, tally, speed):
        """Cold calls as (command, seconds, CompletedProcess, params of the
        limits call), and the warm call times."""
        cold = []
        warm_s = []
        grid = inputs["grid"]
        limits_params = itertools.cycle(grid)
        commands = itertools.cycle(("limits", "fit", "test", "diagnose"))

        def warm_pass():
            # results are kept as JSON text, not as objects, so the run's
            # live heap (and the collector's work) does not grow pass by pass
            results = []
            for params in grid:
                t = perf_counter()
                try:
                    s = limit_summary(params)
                except Exception as exc:  # counted as a failed operation
                    print(f"oneshot: limit_summary raised {exc!r}", file=sys.stderr)
                    s = None
                warm_s.append(perf_counter() - t)
                results.append(None if s is None else _canonical(s.to_dict()))
            return results

        def one_call():
            # a warm pass after each cold call spreads the warm samples over
            # the whole run
            command = next(commands)
            lim = next(limits_params) if command == "limits" else None
            argv = ["limits", *_model_argv(lim)] if lim is not None else inputs[command]
            dt, proc = self._cold(argv)
            cold.append((command, dt, proc, lim))
            return warm_pass()

        warm_passes = _timed_loop(seconds, one_call, speed, ONESHOT_MIN_CALLS)
        self._check(inputs, cold, warm_passes, tally)
        return cold, warm_s

    def _check(self, inputs, cold, warm_passes, tally) -> None:
        x = read_series(inputs["series"])
        params = self.SERIES_PARAMS
        f = fit(x, params.p)
        want = {
            "fit": _canonical(f.to_dict()),
            "test": _canonical([o.to_dict() for o in run_tests(x, f)]),
            "diagnose": _canonical(rate_diagnostic(params, SERIES_N, seed=inputs["seed"])),
        }
        for command, _, proc, lim in cold:
            if not tally.check(proc.returncode == 0,
                               f"oneshot: ardw {command} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}"):
                continue
            try:
                if command == "test":
                    got = [json.loads(line) for line in proc.stdout.splitlines()]
                else:
                    got = json.loads(proc.stdout)
            except json.JSONDecodeError:
                got = None
            expected = (_canonical(limit_summary(lim).to_dict())
                        if command == "limits" else want[command])
            tally.check(_canonical(got) == expected,
                        f"oneshot: ardw {command} output differs from the in-process result")

        for results in warm_passes:
            for ref, got in zip(warm_passes[0], results):
                tally.check(got is not None and got == ref,
                            "oneshot: limit_summary not deterministic")
        for params, ref in zip(inputs["grid"], warm_passes[0]):
            if ref is None:
                continue
            s = limit_summary(params)
            oracle = lyapunov_lambda_oracle(params, params.p + 1)
            tally.check(
                _canonical(s.to_dict()) == ref
                and float(np.max(np.abs(s.Lambda - oracle))) < 1e-9
                and s.d_star == 2.0 * (1.0 - s.rho_star)
                and np.linalg.eigvalsh(s.Sigma_theta)[0] > 0.0,
                f"oneshot: limit_summary of {params} fails its oracle checks",
            )

    def run(self, inputs, seconds, tally, speed) -> dict:
        cold, warm_s = self._measure(inputs, seconds, tally, speed)
        return {
            "work_per_s": 1.0 / (statistics.median(warm_s) * speed.factor()),
            "call_s_p50": statistics.median(dt for _, dt, _, _ in cold) * speed.factor(),
        }

    def trace(self, inputs, seconds, tally, speed) -> tuple[dict, list[str]]:
        cold, _ = self._measure(inputs, seconds, tally, speed)
        params = self.SERIES_PARAMS
        seed = (inputs["seed"], 0)
        noise = NoiseSpec(sigma2=params.sigma2)
        x = read_series(inputs["series"])
        want_fit = _canonical(fit(x, params.p).to_dict())
        clock, mc = Clock(), Clock()
        t0 = perf_counter()
        for _ in range(SERIES_REPLAYS):
            _, f, _ = replay_replication(params, SERIES_N, seed, noise, 0.05, clock)
            tally.check(f is not None and _canonical(f.to_dict()) == want_fit,
                        "oneshot: replayed fit differs from the series' fit")
            t = perf_counter()
            rate_diagnostic(params, SERIES_N, seed=inputs["seed"])
            t1 = perf_counter()
            simulate(params, SERIES_N, seed=inputs["seed"])
            t2 = perf_counter()
            limit_summary(params)
            t3 = perf_counter()
            mc.add("montecarlo.rate_diagnostic", t1 - t)
            mc.add("montecarlo.lower", (t2 - t1) + (t3 - t2))
        replay_wall = perf_counter() - t0
        m = _layer_metrics(clock)
        rate_s = mc.seconds["montecarlo.rate_diagnostic"]
        lower = mc.seconds["montecarlo.lower"]
        m["montecarlo.overhead_us"] = 1e6 * (rate_s - lower) / SERIES_REPLAYS
        m["montecarlo.pool_efficiency"] = lower / rate_s
        clock.merge(mc)
        m["trace_overhead_frac"] = _trace_overhead(replay_wall, clock)
        m.update(_limit_metrics(inputs["grid"]))

        with PeakAlloc() as peaks:
            peaks.replication(params, SERIES_N, seed, noise, 0.05)
            peaks.call("montecarlo", rate_diagnostic, params, SERIES_N, seed=inputs["seed"])
        for layer in ("simulate", "estimators", "serial_tests", "montecarlo"):
            m[f"{layer}.peak_alloc_mb"] = peaks.mb[layer]

        by_command = {}
        for command, dt, _, _ in cold:
            by_command.setdefault(command, []).append(dt)
        lines = ["cold CLI seconds, median (samples): " + ", ".join(
            f"{c} {statistics.median(v):.4g} ({len(v)})" for c, v in by_command.items()
        )]
        return m, lines

