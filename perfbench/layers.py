"""Stage-timed calls into ardw's public functions, for the traced run.

Spans are taken here, in the benchmark's own code, around each call into a
layer (`simulate`, `estimators`, `serial_tests`, `limit_theory`,
`montecarlo`); nothing inside the package is instrumented. A replay calls the
same public functions, with the same seeds and in the same order, as the
code path it shadows, so its counts can be checked against that path's
output.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import defaultdict
from time import perf_counter

from ardw import (
    ArdwError,
    beta_vector,
    build_B,
    check_stability,
    companion_matrix,
    fit,
    limit_summary,
    run_tests,
    simulate,
    solve_lambda,
    toeplitz_delta,
)
from ardw.serial_tests import TEST_NAMES
from ardw.simulate import derive_rng

LIMIT_STAGES = (
    "check_stability", "beta_vector", "build_B", "solve_lambda",
    "toeplitz_delta", "companion_matrix",
)


class Clock:
    """Accumulated busy time and call count per stage, plus event counts."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.events = defaultdict(int)

    def add(self, stage: str, seconds: float, calls: int = 1) -> None:
        self.seconds[stage] += seconds
        self.calls[stage] += calls

    def us_per_call(self, stage: str) -> float:
        return 1e6 * self.seconds[stage] / self.calls[stage]

    def busy(self, stages) -> float:
        return sum(self.seconds[s] for s in stages)

    def merge(self, other: "Clock") -> None:
        for k, v in other.seconds.items():
            self.seconds[k] += v
        for k, v in other.calls.items():
            self.calls[k] += v
        for k, v in other.events.items():
            self.events[k] += v


def replay_replication(params, n, seed, noise, level, clock: Clock, names=TEST_NAMES):
    """One simulate -> fit -> tests cycle, each stage timed.

    Returns (trajectory, fit result or None, {test: (reject, inapplicable)})
    with the flags defined as the study code defines them: a failed fit makes
    every test inapplicable.
    """
    t0 = perf_counter()
    noise.draw(derive_rng(*seed), n + 1)
    t1 = perf_counter()
    traj = simulate(params, n, noise=noise, seed=seed)
    t2 = perf_counter()
    clock.add("simulate.draws", t1 - t0)
    clock.add("simulate.simulate", t2 - t1)
    try:
        f = fit(traj.x, params.p)
    except ArdwError:
        clock.add("estimators.fit", perf_counter() - t2)
        clock.events["estimators.fit_failed"] += 1
        return traj, None, {name: (False, True) for name in names}
    clock.add("estimators.fit", perf_counter() - t2)
    flags = {}
    for name in names:
        t = perf_counter()
        (outcome,) = run_tests(traj.x, f, level=level, names=(name,))
        clock.add(f"serial_tests.{name}", perf_counter() - t)
        inapplicable = "inapplicable" in outcome.warnings
        clock.events[f"serial_tests.{name}_inapplicable"] += inapplicable
        flags[name] = (outcome.reject and not inapplicable, inapplicable)
    return traj, f, flags


def replay_limit_theory(params_list, clock: Clock) -> list[float]:
    """Time each limit_theory stage and a whole limit_summary call per
    parameter set; returns the limit_summary durations in seconds."""
    summary_s = []
    for params in params_list:
        t0 = perf_counter()
        check_stability(params)
        t1 = perf_counter()
        beta_vector(params)
        t2 = perf_counter()
        B = build_B(params)
        t3 = perf_counter()
        lam = solve_lambda(B)
        t4 = perf_counter()
        toeplitz_delta(lam, params.p)
        toeplitz_delta(lam, params.p + 1)
        t5 = perf_counter()
        companion_matrix(params)
        t6 = perf_counter()
        limit_summary(params)
        t7 = perf_counter()
        for stage, dt, calls in zip(
            LIMIT_STAGES,
            (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5),
            (1, 1, 1, 1, 2, 1),
        ):
            clock.add(f"limit_theory.{stage}", dt, calls)
        summary_s.append(t7 - t6)
    return summary_s


class PeakAlloc:
    """Largest tracemalloc peak seen per stage, in MB above the stage's start."""

    def __init__(self):
        self.mb = defaultdict(float)

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()

    def call(self, stage: str, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
        self.mb[stage] = max(self.mb[stage], peak / 2**20)
        return out

    def replication(self, params, n, seed, noise, level):
        """Peaks of one replication's simulate, fit and tests stages."""
        traj = self.call("simulate", simulate, params, n, noise=noise, seed=seed)
        try:
            f = self.call("estimators", fit, traj.x, params.p)
        except ArdwError:
            return
        self.call("serial_tests", run_tests, traj.x, f, level=level)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
