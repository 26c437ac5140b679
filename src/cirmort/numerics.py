"""Shared numerical kernels: the Gauss-Kronrod 15-point rule (GK15) and
bracketed root refinement by safeguarded Newton (Press et al., Numerical
Recipes, 9.4).

The GK15 nodes and weights serve the fixed panel rules of `specfun` (the
Laplace integral of U) and of `closed_form` (the annuity integral in t).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError, NoBracketError

__all__ = [
    "find_root_bracketed",
]

# Kronrod-15 abscissae on [-1, 1] (symmetric; nonnegative half listed) and the
# matching Kronrod weights, QUADPACK dqk15's 33-digit values: with them the
# rule integrates x^j, j <= 22, within 3e-27 (mpmath at 40 digits).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # 15 nodes
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])

# the relative part of the root tolerance is held at or above this
_RTOL_FLOOR = 4.0 * np.finfo(float).eps


def gk15_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 nodes and weights of the panels between consecutive edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * _XGK[None, :]).ravel(),
            (half[:, None] * _WGK[None, :]).ravel())


def find_root_bracketed(f: Callable[[float], tuple[float, float]], lo: float,
                        hi: float, tol: float = 1e-10, max_iter: int = 200,
                        f_lo: tuple | None = None, f_hi: tuple | None = None
                        ) -> float:
    """Safeguarded Newton on f, which returns (value, slope); f_lo and f_hi
    are those pairs at lo and hi, if known.  Requires values of opposite
    sign there; never evaluates outside [lo, hi].  Starts from the end with
    the shorter Newton step, and bisects where a step would leave the bracket
    or the slope is 0.  Stops once the step, which it then takes unevaluated,
    or the bracket is within tol * max(1, |x|) or so (the relative part held
    at 4 eps when tol is below it)."""
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if np.sign(f_lo[0]) * np.sign(f_hi[0]) > 0.0:
        raise NoBracketError(f"f({lo!r}) and f({hi!r}) have the same sign")
    neg, pos = (lo, hi) if f_lo[0] < 0.0 else (hi, lo)
    x, y = ((lo, f_lo) if abs(f_lo[0] * f_hi[1]) <= abs(f_hi[0] * f_lo[1])
            else (hi, f_hi))
    for _ in range(max_iter):
        x_new = x - (y[0] / y[1] if y[1] else np.inf)
        close = tol + max(tol, _RTOL_FLOOR) * abs(x)
        if abs(x_new - x) <= close:
            return min(max(x_new, lo), hi)
        if not min(neg, pos) < x_new < max(neg, pos):
            x_new = 0.5 * (neg + pos)
        x, y = x_new, f(x_new)
        neg, pos = (x, pos) if y[0] < 0.0 else (neg, x)
        if abs(pos - neg) <= close:
            return x
    raise ConvergenceError(
        f"root refinement did not converge in {max_iter} iterations")
