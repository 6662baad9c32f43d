"""What a cold process loads: each CLI subcommand imports only the modules it
runs, and the package's deferred names still resolve on first use."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ardw

DEFERRED = {"ardw.estimators", "ardw.serial_tests", "ardw.montecarlo"}

# the process pool's multiprocessing, and statistics' fractions and decimal
NEVER_CALLED = {"concurrent.futures.process", "multiprocessing", "statistics"}

# runs cli.run on the arguments after -c, then prints its exit code and the
# loaded modules as the last line of stdout
RUN_AND_LIST = """
import json, sys
from ardw.cli import run
code = run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh(code: str, *args: str) -> str:
    """The stdout of code run in a new interpreter that imports this ardw."""
    env = dict(os.environ, PYTHONPATH=str(Path(ardw.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.mark.parametrize("command, loaded", [
    (["limits", "--theta", "0.5,-0.2", "--rho", "0.3"], set()),
    (["fit", "--p", "2"], {"ardw.estimators"}),
    (["test", "--p", "2"], {"ardw.estimators", "ardw.serial_tests"}),
], ids=["limits", "fit", "test"])
def test_cli_loads_only_what_its_command_runs(tmp_path, command, loaded):
    if command[0] != "limits":
        series = tmp_path / "x.csv"
        ardw.simulate(ardw.ModelParams(p=2, theta=[0.5, -0.2], rho=0.3), 200,
                      seed=1).to_csv(series)
        command = [*command, "--input", str(series)]
    code, modules = json.loads(fresh(RUN_AND_LIST, *command).splitlines()[-1])
    assert code == 0
    assert DEFERRED.intersection(modules) == loaded
    assert not NEVER_CALLED.intersection(modules)


def test_power_with_two_workers_gives_the_serial_table(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params_list": [{"p": 1, "theta": [0.5], "rho": 0.3}],
                                  "n_list": [60], "reps": 200, "master_seed": 5}))
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"table{workers}.csv"
        fresh("import sys; from ardw.cli import run; sys.exit(run(sys.argv[1:]))", "power",
              "--config", str(config), "--output", str(out), "--workers", workers)
        tables.append(out.read_text())
    assert tables[0] == tables[1] and tables[0].count("\n") == 6


def test_simulate_stays_the_function_once_montecarlo_loads():
    # importing ardw.montecarlo runs `from .simulate import ...` again, which
    # must not rebind ardw.simulate to the submodule
    assert fresh("import ardw.montecarlo, ardw; print(type(ardw.simulate).__name__)") == (
        "function\n")


def test_deferred_names_resolve_after_a_bare_import():
    names = ["estimators", "serial_tests", "montecarlo", "fit", "run_tests",
             "size_power_study"]
    out = fresh("import ardw, sys; print(*(type(getattr(ardw, n)).__name__ for n in "
                "sys.argv[1:]), ardw.fit is ardw.estimators.fit)", *names)
    assert out.split() == ["module"] * 3 + ["function"] * 3 + ["True"]


def test_every_public_name_is_listed_and_resolves():
    assert set(ardw.__all__) <= set(dir(ardw))
    assert not any(isinstance(getattr(ardw, name), types.ModuleType) for name in ardw.__all__)
    namespace = {}
    exec("from ardw import *", namespace)
    assert set(ardw.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ardw.no_such_name  # noqa: B018
