"""Invariants of fit and run_tests over arbitrary finite series, of
limit_summary over the stability region, and of the CLI over arbitrary
arguments and study configs."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ardw
from ardw.cli import run
from ardw.errors import ArdwError
from ardw.serial_tests import TEST_NAMES, run_tests

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def series_and_order(draw):
    p = draw(st.integers(1, 3))
    x = draw(st.lists(finite, min_size=p + 2, max_size=40))
    return np.array(x), p


def fit_or_none(x, p):
    """The fit, or None when it fails with one of the documented errors."""
    try:
        return ardw.fit(x, p)
    except (ArdwError, ValueError):
        return None


@given(series_and_order())
# squares that overflow, and a rho_hat whose Python-float square overflows
@example((np.array([0.0, 5.0, 3.59538627e307]), 1))
@example((np.array([6.61322182e-118, 1.13126839e-299, 3.86598822e52]), 1))
def test_fit_succeeds_or_raises_documented_error(case):
    x, p = case
    f = fit_or_none(x, p)
    if f is not None:
        assert 0.0 <= f.dw <= 4.0


@given(
    series_and_order(),
    st.lists(st.sampled_from(TEST_NAMES), min_size=1, max_size=7),
    st.floats(0.001, 0.999),
)
# an overflowing auxiliary Gram matrix, and a NaN h-test radicand from a
# subnormal Gram matrix
@example((np.array([0.0, 3.66268861e16, 4.90812440e291]), 1), ["breusch_godfrey"], 0.5)
@example((np.array([0.0, 2.12867068e-162, 0.0]), 1), ["durbin_h"], 0.5)
def test_one_outcome_per_name_with_valid_p_values(case, names, level):
    x, p = case
    f = fit_or_none(x, p)
    if f is None:
        return
    outcomes = run_tests(x, f, level=level, names=tuple(names))
    assert [o.name for o in outcomes] == names
    for o in outcomes:
        inapplicable = "inapplicable" in o.warnings
        if math.isnan(o.p_value):
            assert inapplicable
        else:
            assert 0.0 <= o.p_value <= 1.0
        if inapplicable:
            assert not o.reject


@st.composite
def stable_region_params(draw):
    """Any point of the open region ||theta||_1 < 1, |rho| < 1, as keyword
    arguments of ModelParams; rounding may land on the boundary."""
    p = draw(st.integers(1, 4))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    radius = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    norm = np.abs(direction).sum()
    theta = direction / norm * radius if norm > 0.0 else direction
    rho = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    return {"p": p, "theta": theta, "rho": rho}


@given(stable_region_params())
def test_limit_summary_invariants(kw):
    try:
        s = ardw.limit_summary(ardw.ModelParams(**kw))
    except ArdwError:
        return
    assert 0.0 <= s.d_star <= 4.0
    assert s.d_star == 2.0 * (1.0 - s.rho_star)
    assert s.sigma2_D == 4.0 * s.sigma2_rho
    for m in (s.Sigma_theta, s.Gamma):
        assert np.max(np.abs(m - m.T)) <= 1e-9 * np.max(np.abs(m))
    assert np.linalg.eigvalsh(s.Sigma_theta)[0] > 0.0
    # the fixed-point oracle needs about log(1e-14) / log(r^2) steps at
    # spectral radius r, so it is compared only well inside the region
    if np.max(np.abs(np.linalg.eigvals(s.C_A))) < 0.9:
        oracle = ardw.lyapunov_lambda_oracle(s.params, s.params.p + 1)
        assert np.max(np.abs(s.Lambda - oracle)) <= 1e-9 * max(1.0, s.Lambda[0])


# what a real-number argument may be given in error, alone or in lists
# (ragged ones among them), and a few real values that put the calls past
# their checks
odd_reals = st.recursive(
    st.sampled_from([None, True, "x", "0.5", 1j, 10**400, 2**70, np.array(0.5), np.ones((2, 2)),
                     math.nan, math.inf, -math.inf, {"a": 1}, 0.5, 3, -1.5]),
    lambda kids: st.lists(kids, max_size=4),
    max_leaves=5,
)
X = np.arange(20.0) % 3
FIT = ardw.fit(X, 1)
REAL_ARGUMENTS = (
    lambda v: ardw.ModelParams(p=1, theta=v, rho=0.1),
    lambda v: ardw.ModelParams(p=1, theta=[0.5], rho=v),
    lambda v: ardw.ModelParams(p=1, theta=[0.5], rho=0.1, sigma2=v),
    lambda v: ardw.NoiseSpec(sigma2=v),
    lambda v: ardw.NoiseSpec(family="student_t", df=v),
    lambda v: ardw.fit(v, 1),
    lambda v: ardw.yule_walker_fit(v, 1),
    lambda v: run_tests(v, FIT),
    lambda v: run_tests(X, FIT, level=v),
    lambda v: ardw.dw_chi2_test(FIT, v),
    lambda v: ardw.chi2_quantile(v),
    lambda v: ardw.StudyConfig(params_list=(), n_list=(100,), level=v),
)


@settings(max_examples=100)
@given(odd_reals)
@example(10**400)
@example([[0.5], [0.5, 0.5]])
def test_real_number_arguments_return_or_raise_value_error(value):
    # never TypeError or OverflowError, whatever numpy makes of the value
    for call in REAL_ARGUMENTS:
        with contextlib.suppress(ValueError, ArdwError):
            call(value)


# values of the wrong kind; never an integer, so no drawn size is unbounded
junk = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 5), max_size=2),
)
bad_token = st.sampled_from(["nan", "inf", "-inf", "1.5", "-3", "0", "x", ""])
names = st.lists(st.sampled_from(TEST_NAMES), min_size=1, max_size=3)
# arbitrary JSON; keys of at most 5 characters cannot spell params_list or
# n_list, so no such config starts a study
any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=8,
)


def decimal(lo, hi):
    return st.floats(lo, hi).map("{:.6f}".format)


def integer(lo, hi):
    return st.integers(lo, hi).map(str)


def options(**choices):
    """Each named option present or absent, as a flat argv fragment."""
    return st.fixed_dictionaries({}, optional=choices).map(
        lambda d: [t for k, v in d.items() for t in ("--" + k.replace("_", "-"), v)]
    )


def study_config(v, mixed):
    """A study config with every size within n <= 300 and reps <= 200."""
    entry = st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=3).flatmap(
        lambda th: st.fixed_dictionaries(
            {"p": v(st.just(len(th)), st.integers(-1, 4)), "theta": v(st.just(th)),
             "rho": v(st.floats(-0.9, 0.9))},
            optional={"sigma2": v(st.floats(0.1, 5.0))},
        )
    )
    fields = {
        "params_list": v(st.lists(entry, min_size=1, max_size=2)),
        "n_list": v(st.lists(v(st.integers(10, 300), st.integers(-2, 9)),
                             min_size=1, max_size=2)),
        "reps": v(st.integers(100, 200), st.integers(-5, 99)),
    }
    optional = {
        "level": v(st.floats(0.01, 0.99)),
        "master_seed": v(st.integers(0, 2**70), st.integers(-3, -1)),
        "burn_in": v(st.integers(0, 50), st.integers(-3, -1)),
        "tests": v(names, st.just(["bogus"])),
        "noise": v(st.fixed_dictionaries({}, optional={
            "family": st.sampled_from(["gaussian", "uniform", "student_t"]),
            "sigma2": st.floats(0.1, 5.0), "df": st.floats(4.5, 30.0)}),
            st.fixed_dictionaries({"family": st.just("student_t"), "df": st.floats()})
            | st.fixed_dictionaries({"scale": st.floats()})),
    }
    if not mixed:
        return st.fixed_dictionaries(fields, optional=optional)
    # any key may be missing or misspelt, or the whole config any JSON value
    optional.update(fields, rps=st.integers(0, 5))
    return st.fixed_dictionaries({}, optional=optional) | any_json


@st.composite
def cli_call(draw):
    """(argv, files) for one subcommand. "@name" in argv stands for that file
    in the work directory, and files holds the text of each input file. Half
    of the calls draw only well-formed values, so that many run to the end;
    the other half mix in malformed ones."""
    mixed = draw(st.booleans())

    def v(good, bad=junk):
        return st.one_of(good, bad) if mixed else good

    def tok(good):
        return v(good, bad_token)

    coef = decimal(0.01, 0.3) | decimal(-0.3, -0.01)
    coefs = draw(st.lists(coef, min_size=1, max_size=3))
    # "--theta=" and "--rho=": a leading minus sign must not read as an option
    theta = "--theta=" + draw(tok(st.just(",".join(coefs))))
    rho = "--rho=" + draw(tok(decimal(-0.9, 0.9)))
    cmd = draw(st.sampled_from(
        ["limits", "simulate", "fit", "test", "power", "diagnose"]))
    files = {}
    if cmd in ("fit", "test"):
        values = draw(st.lists(v(st.floats(-10.0, 10.0), st.floats() | bad_token),
                               min_size=0 if mixed else 4, max_size=40))
        files["series.csv"] = "\n".join(map(str, values))
    if cmd == "limits":
        argv = [theta, rho, *draw(options(p=tok(st.just(str(len(coefs))))))]
    elif cmd == "simulate":
        argv = [theta, rho, "--n", draw(tok(integer(10, 300))), "--output", "@traj.csv",
                *draw(options(sigma2=tok(decimal(0.1, 5.0)),
                              seed=tok(integer(0, 2**64)), burn_in=tok(integer(0, 50)),
                              noise=st.sampled_from(["gaussian", "student_t"]),
                              df=tok(decimal(4.5, 30.0))))]
    elif cmd == "fit":
        argv = ["--input", "@series.csv", "--p", draw(tok(integer(1, 3)))]
    elif cmd == "test":
        argv = ["--input", "@series.csv", "--p", draw(tok(integer(1, 3))),
                *draw(options(level=tok(decimal(0.01, 0.99)),
                              tests=tok(names.map(",".join)),
                              format=st.sampled_from(["json", "csv"]),
                              output=st.just("@outcomes")))]
    elif cmd == "power":
        files["study.json"] = json.dumps(draw(study_config(v, mixed)))
        # one worker at most: the golden-table tests pin the pool path, and
        # starting processes for each example is slow
        argv = ["--config", "@study.json", "--output", "@table",
                *draw(options(format=st.sampled_from(["csv", "json"]),
                              workers=v(st.just("1"), integer(-1, 0))))]
    else:
        argv = ["--kind", draw(st.sampled_from(["clt", "rate"])), theta, rho,
                "--n", draw(tok(integer(10, 300))),
                *draw(options(reps=tok(integer(2, 200)), seed=tok(integer(0, 2**64)),
                              output=st.just("@report.json")))]
    return [cmd, *argv], files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


#: the files a call may write; outcomes and table hold CSV or JSON by --format
OUTPUTS = ("traj.csv", "traj.csv.json", "outcomes", "table", "report.json")
ALTERNATING = {"series.csv": "1\n0\n1\n0\n1"}


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=60)
@given(cli_call())
# a NaN sigma2_hat, NaN statistics of inapplicable tests, and the NaN joint
# error of a singular asymptotic covariance
@example(call=(["fit", "--input", "@series.csv", "--p", "1"], ALTERNATING))
@example(call=(["test", "--input", "@series.csv", "--p", "1"], ALTERNATING))
@example(call=(["diagnose", "--kind", "clt", "--theta=0.5", "--rho=-0.5",
                "--n", "200", "--reps", "100"], {}))
def test_cli_exit_codes_and_payloads(workdir, call):
    argv, files = call
    for name, text in files.items():
        (workdir / name).write_text(text)
    for name in OUTPUTS:
        (workdir / name).unlink(missing_ok=True)
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3)
    if code != 0:
        assert set(strict_json(err.getvalue())) == {"error", "message"}
        assert argv[0] != "power" or not (workdir / "table").exists()
        return
    # every text printed or written ends with a newline, and is strict JSON
    # (one document per line for test) or CSV with LF line ends
    fmt = (argv[argv.index("--format") + 1] if "--format" in argv
           else {"test": "json", "power": "csv"}.get(argv[0]))
    texts = {"stdout": out.getvalue()}
    texts.update({name: (workdir / name).read_bytes().decode()
                  for name in OUTPUTS if (workdir / name).exists()})
    for name, text in texts.items():
        if name == "stdout" and not text:
            continue
        assert text.endswith("\n") and "\r" not in text
        if name == "traj.csv" or (name in ("outcomes", "table") and fmt == "csv"):
            continue
        for doc in text.splitlines() if argv[0] == "test" else [text]:
            strict_json(doc)


def test_failing_property_is_reported_as_a_failure(pytestconfig, pytester):
    # hypothesis imports libcst to report a failing property, and libcst
    # warns DeprecationWarning: under the project's filterwarnings the inner
    # session reports the failure and runs the next test
    lines = "\n    ".join(pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n    {lines}\n")
    pytester.makepyfile("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
