"""The CI workflow names tests, workloads, seeds and demos that only an online
run would find missing; these checks read it as text and find them here."""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
PERFBENCH = ROOT / "perfbench"
DEMOS = ("01_limits.py", "02_simulation.py", "03_fitting.py", "04_testing.py",
         "05_power_study.py", "06_diagnostics.py")
#: the golden.json table each golden-checked workload compares with
GOLDEN_TABLES = {"study_serial": "study_csv_sha256", "study_pool": "study_csv_sha256",
                 "long_path": "long_path"}

NODE_IDS = sorted(set(re.findall(r"\btests/[\w/]+\.py(?:::\w+)*", WORKFLOW)))
BENCH_RUNS = re.findall(r"perfbench/run\.py --workload (\w+) --seed (\d+)", WORKFLOW)


def resolves(node_id: str) -> bool:
    """Whether node_id names a test module, and within it the test classes
    and the test function it lists, as pytest would collect them."""
    path, *names = node_id.split("::")
    if not (ROOT / path).is_file():
        return False
    scope = ast.parse((ROOT / path).read_text()).body
    for i, name in enumerate(names):
        last = i == len(names) - 1
        kind = ast.FunctionDef if last else ast.ClassDef
        found = [node for node in scope if isinstance(node, kind) and node.name == name]
        if not found or not name.startswith("test" if last else "Test"):
            return False
        scope = found[0].body
    return True


def test_the_workflow_names_tests_and_workloads():
    # a failed regex would let every check below pass on nothing
    assert any("::" in node_id for node_id in NODE_IDS)
    assert BENCH_RUNS


@pytest.mark.parametrize("node_id", NODE_IDS)
def test_node_id_resolves(node_id):
    assert resolves(node_id), f"{node_id} names no test"


def test_resolves_rejects_what_pytest_would_not_collect():
    here = "tests/test_workflow.py"
    assert resolves(f"{here}::test_node_id_resolves")
    for missing in ("::test_no_such_test", "::TestNoSuchClass::test_node_id_resolves",
                    "::GOLDEN_TABLES", "::resolves"):
        assert not resolves(here + missing)
    assert not resolves("tests/test_no_such_module.py")


def test_workloads_are_the_benchmarks():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    workloads = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WORKLOADS"])
    assert {workload for workload, _ in BENCH_RUNS} <= set(workloads)


def test_golden_checked_seeds_have_goldens():
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    checked = [(w, seed) for w, seed in BENCH_RUNS if w in GOLDEN_TABLES]
    assert checked
    for workload, seed in checked:
        assert seed in golden[GOLDEN_TABLES[workload]], (workload, seed)


def test_demo_loops_run_the_six_demos():
    loops = re.findall(r"for demo in (\S+); do", WORKFLOW)
    assert loops and set(loops) == {"demos/*.py"}
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == list(DEMOS)
