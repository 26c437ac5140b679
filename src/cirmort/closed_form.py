"""Analytical steady-state solution: the annuity form of the value function,
the smooth-pasting boundary residual, the boundary solve, and evaluation of
V(x).

Annuity form.  The steady ODE

    (sigma^2/2) x V'' + k (theta - x) V' - x V + c = 0

has the decaying particular solution A(x) = c int_0^inf P(x, t) dt, the value
of a loan that is never prepaid, where P is the Cox-Ingersoll-Ross
zero-coupon bond price (model.bond_price_terms; it solves the ODE by
Feynman-Kac).  With s = sqrt(k^2 + 2 sigma^2), lam = (k - s)/sigma^2,
p = 2s/sigma^2 and z = p x, the decaying homogeneous solution is
W(x) = e^{lam x} U(alpha, gamma, z), so every decaying solution is A + C W.
Smooth pasting V(x*) = 1, V'(x*) = 0 gives C = (1 - A(x*)) / W(x*) and the
boundary residual

    R(x) = (1 - A) (lam + p U'/U) + A',
    U'/U = -alpha U(alpha+1, gamma+1, z) / U(alpha, gamma, z),

whose root is x*; the solver scans and refines R/p in z (_Workspace
.residual_scaled).  The value on the continuation branch x >= x* is

    V(x) = A(x) + (1 - A(x*)) e^{lam (x - x*)} U(z) / U(z*).

A and A' = -c int B P dt come from one fixed GK15 rule in t (_annuity_rule)
and one matrix product per array of x; they agree with a 25-digit mpmath
quadrature to 7e-15 relative for x up to 1e6 on the supported box (see
specfun); the rule has about 400 nodes.  U enters only as exp of a difference of logs
(specfun._tricomi_u_raw returns ln U), so nothing overflows.  Near x* with
A >> 1 the factor 1 - A(x*) multiplies U's error, which is why U at small
alpha takes the recurrence step of specfun.

The paper's variation-of-parameters form, V = e^{lam x} (c2 U + u_p) with
u_p = M I_U + U I_M and z_ref = z*, is a 30-digit reference in the tests.
Its constant c2, which `cirmort solve` prints, needs M only at z*: there
I_M = 0, so e^{-a z} u_p = Msc IU~ (Msc = e^{-z} M, IU~ = e^{(1-a) z} I_U,
a = 1/2 - k/(2s) = -lam/p) and the same with M' for the derivative, while
e^{-a z} u_p = A + D with D a multiple of W.  Matching value and slope in z
gives the 2x2 solve

    Msc IU~ = (A_z - (U'/U - a) A) / (M'/M - U'/U),   A_z = A' / p,
    c2      = e^{a z*} (1 - Msc IU~) / U(z*).

M'/M, like U'/U, is the exp of a difference of logs
(specfun._kummer_m_scaled returns ln(e^{-z} M)), so it stays in range where
M itself does not.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, NoBracketError, ValidationError
from .model import (CirParams, ContractParams, DerivedConstants,
                    bond_price_terms, derive_constants)
from .numerics import find_root_bracketed, gk15_panels
from .specfun import _kummer_m_scaled, _tricomi_u_raw

__all__ = [
    "SteadyStateSolution",
    "Diagnostics",
    "DiagnosticsWarning",
    "ValueCurve",
    "solve_boundary",
    "pasting_value_error",
    "value",
    "value_derivative",
    "ode_residual",
    "value_curve",
]

Real = Union[float, np.ndarray]

_SCAN_POINTS = 64
# The annuity rule in t (years): GK15 on [0, _T_FIRST], then panels growing
# by _T_RATIO until their width reaches _T_SPAN / r_inf, equal panels of that
# width beyond, out to _T_REACH / r_inf, where P has decayed like
# e^{-r_inf t}; r_inf = 2 k theta / (s + k) is the long rate.  The first
# panel resolves the e^{-B x} ~ e^{-x t} start of P while x _T_FIRST <= 10.
_T_FIRST = 1e-6
_T_RATIO = 3.0
_T_SPAN = 8.0
_T_REACH = 60.0
# ode_residual's finite-difference step in dV/dx, relative to x
_STEP_SCALE = 1e-5
# Bounds on a solution's diagnostics, which cirmort verify's pasting and
# ODE-residual checks also apply
PASTING_VALUE_TOL = 1e-8
PASTING_SLOPE_TOL = 1e-6
ODE_RESIDUAL_TOL_PER_C = 1e-6           # times the coupon c


class DiagnosticsWarning(UserWarning):
    """A solved boundary's diagnostic misses its bound: the boundary or the
    value function may be less accurate than documented."""


def _annuity_rule(r_inf: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights in t of the annuity integral (see _T_FIRST)."""
    width = _T_SPAN / r_inf
    t_switch = min(width / (_T_RATIO - 1.0), _T_REACH / r_inf)
    n = math.ceil(math.log(t_switch / _T_FIRST) / math.log(_T_RATIO))
    grown = _T_FIRST * _T_RATIO ** np.arange(n + 1)
    even = np.arange(grown[-1], _T_REACH / r_inf + width, width)[1:]
    return gk15_panels(np.concatenate([[0.0], grown, even]))


class _Workspace:
    """Per-(cir, contract) evaluation context: the annuity rule with its
    bond-price terms, and the basis U; all public entry points funnel
    through here."""

    def __init__(self, cir: CirParams, contract: ContractParams):
        self.consts = consts = derive_constants(cir)
        self.alpha = consts.alpha
        self.gamma = consts.gamma
        self.a = consts.a_exp
        t, w = _annuity_rule(2.0 * cir.k * cir.theta / (consts.s + cir.k))
        self.log_a, b = bond_price_terms(cir, t)
        # columns: c w for A, -c w B for A'
        self.weights = contract.c * np.stack([w, -w * b], axis=1)
        self.b = b

    def annuity(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, dA/dx) at every rate x of xs, one matrix product."""
        both = np.exp(self.log_a - np.outer(xs, self.b)) @ self.weights
        return both[:, 0], both[:, 1]

    def log_u_and_ratio(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ln U, U'/U) at every z of zs."""
        log_u = _tricomi_u_raw(self.alpha, self.gamma, zs)
        return log_u, -self.alpha * np.exp(
            _tricomi_u_raw(self.alpha + 1.0, self.gamma + 1.0, zs) - log_u)

    def residual_scaled(self, z: Real) -> Real:
        """R/p = dV/dz at x = z/p for the V that pastes there, at one z or at
        each z of an array."""
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        ann, ann_x = self.annuity(zs / self.consts.p)
        ratio = self.log_u_and_ratio(zs)[1]
        res = (1.0 - ann) * (ratio - self.a) + ann_x / self.consts.p
        return float(res[0]) if np.ndim(z) == 0 else res


@dataclass(frozen=True)
class Diagnostics:
    pasting_value_error: float     # V(x*) - 1 on the continuation branch
    pasting_slope: float           # V'(x* from the continuation side)
    ode_residual_max: float        # max |L V - c| over probe points


@dataclass(frozen=True)
class SteadyStateSolution:
    cir: CirParams
    contract: ContractParams
    consts: DerivedConstants
    z_star: float
    x_star: float
    c2: float
    diagnostics: Diagnostics
    workspace: _Workspace = field(repr=False, compare=False, default=None)
    log_u_at_star: float = field(repr=False, compare=False, default=0.0)
    amp: float = field(repr=False, compare=False, default=0.0)  # 1 - A(x*)


def _branch(sol: SteadyStateSolution,
            xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, dV/dx) on the continuation branch at each rate x >= x* of the
    array xs, in any order, at z = max(p x, z*):

        V     = A(x) + g,   g = amp e^{-a (z - z*)} U(z) / U(z*),
        dV/dx = A'(x) + p g (U'/U - a),

    with one call of the annuity kernel and of each U per chunk of at most
    _SCAN_POINTS sorted abscissae."""
    ws = sol.workspace
    p = ws.consts.p
    z = np.maximum(p * xs, sol.z_star)
    order = np.argsort(z, kind="stable")
    zs = z[order]
    v = np.empty_like(zs)
    dv = np.empty_like(zs)
    for lo in range(0, zs.size, _SCAN_POINTS):
        part = slice(lo, lo + _SCAN_POINTS)
        c = zs[part]
        ann, ann_x = ws.annuity(c / p)
        log_u, ratio = ws.log_u_and_ratio(c)
        g = sol.amp * np.exp(log_u - sol.log_u_at_star
                             - ws.a * (c - sol.z_star))
        v[part] = ann + g
        dv[part] = ann_x + p * g * (ratio - ws.a)
    out_v = np.empty_like(zs)
    out_dv = np.empty_like(zs)
    out_v[order] = v
    out_dv[order] = dv
    return out_v, out_dv


def _rates(x, name: str) -> tuple[np.ndarray, bool]:
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0) & np.isfinite(xs)):
        raise DomainError(f"{name} requires finite x >= 0")
    return np.atleast_1d(xs), xs.ndim == 0


def value(solution: SteadyStateSolution, x: Real) -> Real:
    """V(x): exactly 1 in the stopped region x <= x*, the closed form above
    it."""
    xs, scalar = _rates(x, "value")
    out = np.ones_like(xs)
    cont = xs > solution.x_star
    if cont.any():
        out[cont] = _branch(solution, xs[cont])[0]
    return float(out[0]) if scalar else out


def value_derivative(solution: SteadyStateSolution, x: Real) -> Real:
    """dV/dx: 0 in the stopped region, continuation branch for x >= x*."""
    xs, scalar = _rates(x, "value_derivative")
    out = np.zeros_like(xs)
    cont = xs >= solution.x_star
    if cont.any():
        out[cont] = _branch(solution, xs[cont])[1]
    return float(out[0]) if scalar else out


def _pasting(solution: SteadyStateSolution) -> tuple[float, float]:
    """(V - 1, dV/dx) at x* on the continuation branch."""
    v, dv = _branch(solution, np.array([solution.x_star]))
    return float(v[0]) - 1.0, float(dv[0])


def pasting_value_error(solution: SteadyStateSolution) -> float:
    """V(x*) - 1 on the continuation branch.  value() reads the stopped
    branch at x*, which is 1 by definition, so it cannot show a misplaced
    boundary."""
    return _pasting(solution)[0]


def ode_residual(solution: SteadyStateSolution, x: Real) -> Real:
    """Steady ODE residual (sigma^2/2) x V'' + k(theta - x) V' - x V + c, at
    one x or at each x of an array: c - x on the stopped branch x <= x*
    (V = 1, V' = V'' = 0); on the continuation branch V'' is a finite
    difference of dV/dx over x - h, x + h (over x, x + h where x - h is
    stopped), with every stencil point in one branch evaluation."""
    xs, scalar = _rates(x, "ode_residual")
    cir = solution.cir
    out = solution.contract.c - xs
    cont = xs > solution.x_star
    if cont.any():
        x = xs[cont]
        h = _STEP_SCALE * x
        central = x - h > solution.x_star
        n = x.size
        v, dv = _branch(solution, np.concatenate(
            [np.where(central, x - h, x), x, x + h]))
        v2 = (dv[2 * n:] - dv[:n]) / np.where(central, 2.0 * h, h)
        out[cont] = (0.5 * cir.sigma ** 2 * x * v2
                     + cir.k * (cir.theta - x) * dv[n:2 * n]
                     - x * v[n:2 * n] + solution.contract.c)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ValueCurve:
    points: tuple  # of (x, v, ode_residual)


def value_curve(solution: SteadyStateSolution, x_lo: float, x_hi: float,
                n: int) -> ValueCurve:
    if not math.isfinite(x_hi):
        raise ValidationError("x_hi", f"must be finite, got {x_hi!r}")
    if not (0 <= x_lo < x_hi):
        raise ValidationError("x_lo", "need 0 <= x_lo < x_hi")
    if n < 2:
        raise ValidationError("n", "need at least 2 points")
    xs = np.linspace(x_lo, x_hi, n)
    return ValueCurve(points=tuple(zip(
        xs.tolist(), value(solution, xs).tolist(),
        ode_residual(solution, xs).tolist())))


def _msc_iu(ws: _Workspace, z: float, ann: float, ann_x: float,
            ratio: float) -> float:
    """Msc IU~ at z, given A, A' at x = z/p and U'/U at z: the 2x2 solve of
    the module docstring with z_ref = z, which needs M only through
    M'/M = (alpha/gamma) M(alpha+1, gamma+1, z) / M(alpha, gamma, z)."""
    consts = ws.consts
    m_ratio = (consts.alpha / consts.gamma) * math.exp(
        _kummer_m_scaled(consts.alpha + 1.0, consts.gamma + 1.0, z)
        - _kummer_m_scaled(consts.alpha, consts.gamma, z))
    return ((ann_x / consts.p - (ratio - consts.a_exp) * ann)
            / (m_ratio - ratio))


def solve_boundary(cir: CirParams, contract: ContractParams,
                   tol: float = 1e-10) -> SteadyStateSolution:
    """Locate the free boundary: geometric scan for a sign change of the
    smooth-pasting residual, Brent refinement, then assemble the solution
    with its pasting and ODE-residual diagnostics.  Warns with
    DiagnosticsWarning, naming each diagnostic, when one misses its bound
    (PASTING_VALUE_TOL, PASTING_SLOPE_TOL, ODE_RESIDUAL_TOL_PER_C times c)."""
    if not tol >= 1e-12:
        raise ValidationError("tol", f"must be >= 1e-12, got {tol!r}")
    if abs(contract.m - contract.c) > 1e-15 * max(contract.m, contract.c):
        raise ValidationError(
            "m", "the steady-state solver requires the m = c normalization; "
                 "rescale reported values by m/c instead")
    ws = _Workspace(cir, contract)
    consts = ws.consts

    z_lo = 1e-4 * consts.p * cir.theta
    z_hi = 10.0 * consts.p * max(cir.theta, contract.c)
    grid = np.geomspace(z_lo, z_hi, _SCAN_POINTS)
    vals = ws.residual_scaled(grid)
    finite = np.isfinite(vals)
    change = np.nonzero(finite[:-1] & finite[1:]
                        & (vals[:-1] * vals[1:] < 0))[0]
    if change.size == 0:
        raise NoBracketError(
            "no sign change of the boundary residual on the scan grid",
            scan_points=grid, scan_values=vals)

    lo, hi = float(grid[change[0]]), float(grid[change[0] + 1])
    z_star = find_root_bracketed(ws.residual_scaled, lo, hi,
                                 tol=tol * lo / max(1.0, hi))
    x_star = z_star / consts.p

    zs = np.array([z_star])
    ann, ann_x = (float(v[0]) for v in ws.annuity(zs / consts.p))
    log_u, ratio = (float(v[0]) for v in ws.log_u_and_ratio(zs))
    # the paper's c2 with z_ref = z*
    c2 = math.exp(consts.a_exp * z_star - log_u) * (
        1.0 - _msc_iu(ws, z_star, ann, ann_x, ratio))

    sol = SteadyStateSolution(
        cir=cir, contract=contract, consts=consts,
        z_star=z_star, x_star=x_star, c2=c2,
        diagnostics=Diagnostics(0.0, 0.0, 0.0),
        workspace=ws, log_u_at_star=log_u, amp=1.0 - ann)

    v_err, slope = _pasting(sol)
    probes = np.geomspace(1.02 * x_star, 5.0 * x_star, 7)
    res_max = float(np.max(np.abs(ode_residual(sol, probes))))
    missed = [f"{name} = {measured!r} (bound {bound!r})"
              for name, measured, bound in (
                  ("pasting_value_error", v_err, PASTING_VALUE_TOL),
                  ("pasting_slope", slope, PASTING_SLOPE_TOL),
                  ("ode_residual_max", res_max,
                   ODE_RESIDUAL_TOL_PER_C * contract.c))
              if not abs(measured) <= bound]
    if missed:
        warnings.warn("diagnostics miss their bounds: " + "; ".join(missed),
                      DiagnosticsWarning, stacklevel=2)
    return dataclasses.replace(
        sol, diagnostics=Diagnostics(v_err, slope, res_max))
