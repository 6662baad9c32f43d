"""Invariants of fit and run_tests over arbitrary finite series."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import ardw
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
