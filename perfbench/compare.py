"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds runs written by `run.py --record FILE`. Within a workload,
runs are sorted by seed and paired in that order. For every metric it prints
each side's median and quartiles, the pairs the change wins, and a verdict:

- improved: the change wins at least 9 in 10 pairs, its median is better
  than the base's by more than the base's interquartile distance, and it
  fails no more operations than the base;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the base's own interquartile distance is wider than the bound,
  and not every change run beats every base run;
- within bound: otherwise.

Per-layer metrics have no bound; they are either improved or marked "-".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def load_runs(path: str) -> dict:
    """{(workload, trace): [record, ...]} sorted by seed."""
    groups: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            m = rec["manifest"]
            groups.setdefault((m["workload"], m["trace"]), []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: r["manifest"]["seed"])
    return groups


def verdict(base, change, better: str, bound: float | None,
            may_improve: bool = True) -> tuple[str, int, int]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - bmed)
    if may_improve and pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return "improved", wins, len(pairs)
    if bound is None:
        return "-", wins, len(pairs)
    if -gain > bound * abs(bmed):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if bq3 - bq1 > bound * abs(bmed) and not all_better:
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_runs(argv[0]), load_runs(argv[1])
    for key in sorted(set(base) & set(change)):
        b_runs, c_runs = base[key], change[key]
        failed = (sum(r["result"]["failed"] for r in b_runs),
                  sum(r["result"]["failed"] for r in c_runs))
        print(f"\n{key[0]} (trace {key[1]}): {len(b_runs)} base runs, "
              f"{len(c_runs)} change runs, failed operations {failed[0]} -> {failed[1]}")
        print(f"  {'metric':40s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s}"
              f" {'wins':>7s}  verdict")
        for name in b_runs[0]["result"]["metrics"]:
            m = metrics[name]
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            v, wins, pairs = verdict(bv, cv, m["better"], m.get("bound"),
                                     may_improve=failed[1] <= failed[0])
            print(f"  {name:40s} {_fmt(quartiles(bv)):>32s} {_fmt(quartiles(cv)):>32s}"
                  f" {wins:>3d}/{pairs:<3d}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
