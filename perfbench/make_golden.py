"""Write golden.json: the reference outputs the benchmark checks against.

For each shipped seed it records the sha256 of the serial study table and the
long-path estimates (theta_hat..., rho_hat, dw) per DEFAULT_SUITE set. Run it
from a checkout root only to re-baseline, and say why in the change that does:

    python3 perfbench/make_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ardw import fit, simulate, size_power_study  # noqa: E402

from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402
from workloads import LONG_N, LongPath, Study  # noqa: E402


def main() -> None:
    golden = {"study_csv_sha256": {}, "long_path": {}}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        csv = size_power_study(Study("study_serial", 1).setup(seed), workers=1).to_csv()
        golden["study_csv_sha256"][str(seed)] = hashlib.sha256(csv.encode()).hexdigest()
        estimates = []
        for params, path_seed in LongPath().setup(seed):
            f = fit(simulate(params, LONG_N, seed=path_seed).x, params.p)
            estimates.append([*f.theta_hat.tolist(), f.rho_hat, f.dw])
        golden["long_path"][str(seed)] = estimates
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
