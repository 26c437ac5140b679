"""Unit tests for the shared GK15 rule and root-finding."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cirmort.errors import ConvergenceError, NoBracketError
from cirmort.numerics import _WG, _WGK, _XGK, find_root_bracketed


# ---------------------------------------------------------------------------
# the fixed GK15 rule shared by the panel quadratures of specfun and
# closed_form

def _gk15_panels(f, a, b, n):
    """Composite GK15 on n equal panels: (Kronrod sum, sum of |K - G|)."""
    edges = np.linspace(a, b, n + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    fx = f(mid[:, None] + half[:, None] * _XGK)
    k15, g7 = (fx @ _WGK) * half, (fx @ _WG) * half
    return float(k15.sum()), float(np.abs(k15 - g7).sum())


def test_quad_constant():
    # Kronrod-15 is exact to degree 22 and its Gauss-7 subset to degree 13
    # (to the 15 digits of the tabulated weights)
    value, err = _gk15_panels(lambda x: np.ones_like(x), 0.0, 1.0, 1)
    assert value == pytest.approx(1.0, rel=1e-13)
    assert 0.0 <= err <= 1e-14
    for deg in range(23):
        truth = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(_XGK ** deg @ _WGK - truth) <= 1e-14, deg
        if deg <= 13:
            assert abs(_XGK ** deg @ _WG - truth) <= 1e-14, deg


def test_quad_error_estimates_conservative():
    # battery of smooth integrals with known values: on one panel or
    # several, the true error is at most 10x the Kronrod-minus-Gauss
    # estimate
    cases = [
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: np.exp(-x * x), -6.0, 6.0, math.sqrt(math.pi)),
        (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
        (lambda x: x ** 7 - 3 * x ** 2, 0.0, 2.0, 2.0 ** 8 / 8 - 8.0),
        (lambda x: np.cos(40.0 * x), 0.0, 1.0, math.sin(40.0) / 40.0),
        (np.exp, -1.0, 1.0, math.e - 1.0 / math.e),
        (lambda x: 1.0 / (2.0 + x), -1.0, 1.0, math.log(3.0)),
    ]
    for n in (1, 2, 4, 8):
        for f, a, b, truth in cases:
            value, err = _gk15_panels(f, a, b, n)
            true_err = abs(value - truth)
            assert true_err <= max(10.0 * err, 1e-13), (n, truth)


# ---------------------------------------------------------------------------
# root finding

def test_root_sqrt2():
    r = find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_root_linear_through_zero():
    r = find_root_bracketed(lambda x: x, -1.0, 1.0, tol=1e-12)
    assert abs(r) <= 1e-10


def test_root_step_function_bisection_fallback():
    r = find_root_bracketed(lambda x: 1.0 if x >= 0.3 else -1.0,
                            0.0, 1.0, tol=1e-9)
    assert r == pytest.approx(0.3, abs=1e-8)


def test_root_requires_bracket():
    with pytest.raises(NoBracketError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_never_evaluates_outside_bracket():
    seen = []

    def f(x):
        seen.append(x)
        return math.tan(x) - 0.5

    find_root_bracketed(f, -1.0, 1.0, tol=1e-12)
    assert all(-1.0 <= x <= 1.0 for x in seen)


def test_root_iteration_cap():
    # an adversarial callable that never narrows: force the iteration error
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return 1.0 if calls["n"] % 2 else -1.0

    with pytest.raises((ConvergenceError, NoBracketError)):
        find_root_bracketed(f, 0.0, 1.0, tol=1e-15, max_iter=5)


def test_root_accepts_a_tolerance_below_the_float_floor():
    # the relative tolerance is held at brentq's floor of 4 eps
    r = find_root_bracketed(lambda x: x - 1.5e-6, 1e-6, 2e-6, tol=1e-18)
    assert abs(r - 1.5e-6) <= 1e-15


@given(st.floats(-5.0, 5.0), st.floats(0.1, 4.0))
def test_root_property_cubic(shift, scale):
    def f(x):
        return scale * (x - shift) ** 3 + (x - shift)

    r = find_root_bracketed(f, shift - 6.0, shift + 7.0, tol=1e-12)
    assert r == pytest.approx(shift, abs=1e-7 * max(1.0, abs(shift)))
