"""Shared numerical kernels: the Gauss-Kronrod 7/15 rule and bracketed root
refinement by scipy's brentq.

The GK15 nodes and weights serve the fixed panel rules of `specfun` (the
Laplace integral of U) and of `closed_form` (the annuity integral in t).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import optimize

from .errors import ConvergenceError, NoBracketError

__all__ = [
    "find_root_bracketed",
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

# brentq rejects a relative tolerance below this
_RTOL_FLOOR = 4.0 * np.finfo(float).eps


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
    """Brent's method, as scipy's brentq: inverse quadratic / secant steps
    with bisection fallback.  Requires f(lo) and f(hi) of opposite sign;
    never evaluates outside [lo, hi].  Stops when the bracket width is about
    tol * max(1, |root|); the relative part is held at brentq's floor of
    4 eps when tol is below it.
    """
    try:
        root, info = optimize.brentq(
            f, lo, hi, xtol=tol, rtol=max(tol, _RTOL_FLOOR),
            maxiter=max_iter, full_output=True, disp=False)
    except ValueError as exc:
        if "different signs" not in str(exc):
            raise
        raise NoBracketError(
            f"f({lo!r}) and f({hi!r}) have the same sign") from None
    if not info.converged:
        raise ConvergenceError(
            f"root refinement did not converge in {max_iter} iterations")
    return root
