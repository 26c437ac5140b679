"""Shared numerical kernels: the Gauss-Kronrod 7/15 rule, bracketed root
refinement, and an adaptive ODE stepper.

The GK15 nodes and weights serve the fixed panel rules of `specfun` (the
Laplace integral of U) and of `closed_form` (the annuity integral in t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, NoBracketError

__all__ = [
    "Trajectory",
    "find_root_bracketed",
    "ode_integrate",
]

# Kronrod-15 abscissae on [-1, 1] (symmetric; nonnegative half listed) and the
# matching Kronrod and embedded Gauss-7 weights, QUADPACK values.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # 15 nodes
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])      # Gauss nodes


def gk15_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 nodes and weights of the panels between consecutive edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * _XGK[None, :]).ravel(),
            (half[:, None] * _WGK[None, :]).ravel())


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Brent's method: inverse quadratic / secant steps with bisection
    fallback.  Requires f(lo) and f(hi) of opposite sign; never evaluates
    outside [lo, hi].  Stops when the bracket width is ≤ tol * max(1, |root|)
    (plus the unavoidable floating-point floor).
    """
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NoBracketError(
            f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} have the same sign")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d, e = xm, xm
        else:
            d, e = xm, xm
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = float(f(b))
    raise ConvergenceError(
        f"root refinement did not converge in {max_iter} iterations")


@dataclass
class Trajectory:
    xs: np.ndarray
    states: np.ndarray                 # shape (len(xs), dim)
    success: bool
    event_xs: Sequence[np.ndarray]


def ode_integrate(
    rhs: Callable,
    x0: float,
    state0,
    x_end: float,
    tol: float = 1e-10,
    events=None,
) -> Trajectory:
    """Adaptive explicit Runge-Kutta (DOP853) integration with event
    detection.  Raises ConvergenceError on step-size underflow, reporting the
    last abscissa reached.
    """
    sol = solve_ivp(
        rhs, (x0, x_end), np.asarray(state0, dtype=float),
        method="DOP853", rtol=tol, atol=tol, events=events,
        dense_output=False)
    if sol.status == -1:
        last = sol.t[-1] if sol.t.size else x0
        raise ConvergenceError(
            f"ODE step failed near x = {last!r}: {sol.message}")
    return Trajectory(
        xs=sol.t,
        states=sol.y.T,
        success=sol.status == 0 or sol.status == 1,
        event_xs=sol.t_events if sol.t_events is not None else [],
    )
