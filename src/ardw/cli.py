"""Batch command-line surface.

Subcommands: limits, simulate, fit, test, power, diagnose. Results are
strict JSON (shortest round-trip floats; NaN or infinity as null, so a test
that could not run shows reject false and "inapplicable" in its warnings)
or CSV (17 significant digits, LF line ends), and every text ends with a
newline. Each result's text goes to the --output file when one is given and
to stdout otherwise, so the file holds exactly the bytes the command would
print. power --workers above the CPU count runs at the CPU count.
Exit codes: 0 success, 2 usage error, 3 numerical/degeneracy error (with a
machine-readable JSON payload on stderr). Each advisory warning goes to
stderr as one JSON line {"warning", "message"}, before any error payload; a
warning that python -W error turns into an exception exits 3 with its
payload.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ArdwError
from .limit_theory import ModelParams, limit_summary
from .simulate import _FAMILIES, NoiseSpec, simulate
from .text import json_text


def _params_from_args(args) -> ModelParams:
    theta = np.array([float(t) for t in args.theta.split(",") if t.strip() != ""])
    return ModelParams(
        p=len(theta), theta=theta, rho=args.rho,
        sigma2=getattr(args, "sigma2", 1.0),
    )


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so that it gets the JSON payload."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ardw",
        description="Durbin-Watson asymptotics for stable AR(p) processes "
        "with AR(1)-correlated noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lim = sub.add_parser("limits", help="print all closed-form limits as JSON")
    p_lim.add_argument("--p", type=int, default=None, help="model order (inferred from theta)")
    p_lim.add_argument("--theta", required=True, help="comma-separated coefficients")
    p_lim.add_argument("--rho", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="write a trajectory CSV + JSON sidecar")
    p_sim.add_argument("--theta", required=True)
    p_sim.add_argument("--rho", type=float, required=True)
    p_sim.add_argument("--sigma2", type=float, default=1.0)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--burn-in", type=int, default=0)
    p_sim.add_argument("--noise", default="gaussian", choices=_FAMILIES)
    p_sim.add_argument("--df", type=float, default=5.0)
    p_sim.add_argument("--output", required=True)

    p_fit = sub.add_parser("fit", help="fit a series and print the result as JSON")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--p", type=int, required=True)

    p_test = sub.add_parser("test", help="run serial-correlation tests on a series")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--p", type=int, required=True)
    p_test.add_argument("--level", type=float, default=0.05)
    p_test.add_argument("--tests", default="all")
    p_test.add_argument("--format", default="json", choices=["json", "csv"])
    p_test.add_argument("--output", default=None)

    p_pow = sub.add_parser("power", help="run a size/power study from a config file")
    p_pow.add_argument("--config", required=True)
    p_pow.add_argument("--output", required=True)
    p_pow.add_argument("--format", default="csv", choices=["csv", "json"])
    p_pow.add_argument("--workers", type=int, default=1)

    p_diag = sub.add_parser("diagnose", help="CLT or rate diagnostics")
    p_diag.add_argument("--kind", required=True, choices=["clt", "rate"])
    p_diag.add_argument("--theta", required=True)
    p_diag.add_argument("--rho", type=float, required=True)
    p_diag.add_argument("--n", type=int, required=True)
    p_diag.add_argument("--reps", type=int, default=1000)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--output", default=None)
    return parser


def _result_text(args) -> str:
    """The text of a command's result: a JSON document, one JSON line per test
    outcome, or CSV. Each command imports only the modules it runs."""
    if args.command == "limits":
        params = _params_from_args(args)
        if args.p is not None and args.p != params.p:
            raise ValueError("p does not match theta length")
        return json_text(limit_summary(params).to_dict())
    if args.command in ("fit", "test"):
        from .estimators import fit, read_series
    if args.command == "fit":
        return json_text(fit(read_series(args.input), args.p).to_dict())
    if args.command == "test":
        from .serial_tests import TEST_NAMES, outcomes_to_csv, run_tests

        x = read_series(args.input)
        names = TEST_NAMES if args.tests == "all" else tuple(args.tests.split(","))
        outcomes = run_tests(x, fit(x, args.p), level=args.level, names=names)
        if args.format == "json":
            return "".join(json_text(o.to_dict(), indent=None) for o in outcomes)
        if args.output is None:
            raise ValueError("--output required for csv")
        return outcomes_to_csv(outcomes)
    from .montecarlo import StudyConfig, clt_diagnostic, rate_diagnostic, size_power_study

    if args.command == "power":
        config = StudyConfig.from_json(args.config)
        table = size_power_study(config, workers=args.workers)
        if args.format == "csv":
            return table.to_csv()
        return json_text(list(table.rows))
    params = _params_from_args(args)  # diagnose
    if args.kind == "clt":
        return json_text(clt_diagnostic(params, args.n, args.reps, seed=args.seed))
    return json_text(rate_diagnostic(params, args.n, seed=args.seed))


def run(argv: list[str] | None = None) -> int:
    error = None
    with warnings.catch_warnings(record=True) as caught:  # the filters stay as they are
        try:
            args = build_parser().parse_args(argv)
            if args.command == "simulate":
                params = _params_from_args(args)
                noise = NoiseSpec(family=args.noise, sigma2=args.sigma2, df=args.df)
                simulate(params, args.n, noise=noise, seed=args.seed,
                         burn_in=args.burn_in).to_csv(args.output)
            elif getattr(args, "output", None) is None:
                sys.stdout.write(_result_text(args))
            else:
                Path(args.output).write_text(_result_text(args))
        except SystemExit:  # --help; every parse error raises ValueError
            pass
        except (ArdwError, MemoryError, OSError, ValueError, Warning) as exc:
            error = exc  # a Warning here is one that -W error made an exception
    lines = [{"warning": w.category.__name__, "message": str(w.message)} for w in caught]
    if error is not None:
        lines.append({"error": type(error).__name__, "message": str(error)})
    sys.stderr.write("".join(json_text(line, indent=None) for line in lines))
    return 0 if error is None else 3 if isinstance(error, (ArdwError, Warning)) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
