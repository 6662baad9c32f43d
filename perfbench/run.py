"""ardw benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study_serial --seed 1203 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1203      # every workload, one table

Workloads: study_serial, study_pool, long_path, oneshot (see workloads.py and
README.md). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are those
of BENCHMARK.json. `--record FILE` appends the run, with its manifest, to a
JSON-lines file that compare.py reads.
"""

from __future__ import annotations

import os

#: BLAS threads per process; with at most two study workers the thread count
#: stays within a two-core machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("study_serial", "study_pool", "long_path", "oneshot")
DEFAULT_SEED = 1203
HELD_OUT_SEED = 1871
#: set-ups per run; setup_s is their median
SETUPS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def fresh_import(env: dict) -> float:
    """Wall seconds of `import ardw` in a new interpreter."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import ardw"], env=env, check=True,
                   capture_output=True, timeout=120)
    return perf_counter() - t


def scipy_import_s(env: dict) -> float:
    """Seconds that -X importtime charges to scipy modules during `import ardw`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ardw"],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                us += int(parts[0].split(":")[1])
    return us / 1e6


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_one(args, units: dict) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    env = child_env()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        wl = {
            "study_serial": lambda: workloads.Study("study_serial", workers=1),
            "study_pool": lambda: workloads.Study("study_pool", workers=2),
            "long_path": workloads.LongPath,
            "oneshot": lambda: workloads.OneShot(Path(tmp), env),
        }[args.workload]()

        setup_speed = workloads.HostSpeed()
        setup_speed.sample()
        setup_s, import_s = [], []
        for _ in range(SETUPS):
            imp = fresh_import(env)
            t = perf_counter()
            inputs = wl.setup(args.seed)
            setup_s.append(imp + perf_counter() - t)
            import_s.append(imp)
            setup_speed.sample()

        tally = workloads.Tally()
        speed = workloads.HostSpeed()
        if args.trace:
            metrics, lines = wl.trace(inputs, args.seconds, tally, speed)
            metrics["cli.import_scipy_s"] = statistics.median(
                scipy_import_s(env) for _ in range(SETUPS))
            for k in metrics:
                if units[k] in ("s", "us"):
                    metrics[k] *= speed.factor()
            metrics["cli.import_s"] = statistics.median(import_s) * setup_speed.factor()
        else:
            metrics, lines = wl.run(inputs, args.seconds, tally, speed), []
            metrics["setup_s"] = statistics.median(setup_s) * setup_speed.factor()
            metrics["peak_rss_mb"] = peak_rss_mb()
        lines.append(f"host speed factor {speed.factor():.4g} "
                     f"(set-up {setup_speed.factor():.4g}); timed figures are scaled by it")

    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    info = manifest(args)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print("manifest " + json.dumps(info))
    for line in lines:
        print(line)
    print(f"error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for k in units:
        print(f"{k} {metrics[k]:.6g} {units[k]}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"manifest": info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, units: dict) -> int:
    """Every workload in its own process, one table of their metrics."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.record:
            argv += ["--record", args.record]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            if not line.startswith(tuple(units)):
                print(f"[{name}] {line}")
    width = max(len(k) for k in units) + 2
    print("metric".ljust(width) + "unit".ljust(10)
          + "".join(w.rjust(14) for w in WORKLOADS))
    for k in units:
        print(k.ljust(width) + units[k].ljust(10) + "".join(
            f"{results[w]['metrics'][k]['value']:14.6g}" for w in WORKLOADS))
    print("error_rate".ljust(width) + "fraction".ljust(10) + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:14.6g}" for w in WORKLOADS))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append this run, with its manifest, to a JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "ardw" / "__init__.py").is_file():
        print(f"perfbench: no ardw package at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    units = load_spec()[args.trace]
    if args.workload == "all":
        return run_all(args, units)
    return run_one(args, units)


if __name__ == "__main__":
    sys.exit(main())
