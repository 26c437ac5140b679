"""Analytical steady-state solution: variation-of-parameters particular
solution, smooth-pasting boundary residual, boundary solve, and evaluation of
the value function V(x).

Transformed problem.  With s = sqrt(k^2 + 2 sigma^2), lam = (k - s)/sigma^2,
p = 2s/sigma^2, z = p x and V(x) = e^{lam x} u(z), the steady ODE

    (sigma^2/2) x V'' + k (theta - x) V' - x V + c = 0

becomes z u'' + (gamma - z) u' - alpha u = g(z) with source
g(z) = -(c/s) e^{a z}, a = a_exp = 1/2 - k/(2s).  Since lam = -a p, the value
is V(x) = e^{-a z} u(z): every formula below is assembled in this scaled
space, where nothing overflows for any z the solver visits.

Particular solution (variation of parameters, split form):

    u_p(z) = M(z) I_U(z) + U(z) I_M(z),
    I_U(z) = int_z^inf  U(xi) w(xi) dxi,
    I_M(z) = int_zref^z M(xi) w(xi) dxi,
    w(xi)  = kappa xi^{gamma-1} e^{-(1-a) xi},
    kappa  = (Gamma(alpha)/Gamma(gamma)) (c/s) > 0.

Both split integrals converge (the combined single-integral form does not,
term by term: M(xi) w(xi) grows like xi^{alpha} e^{a xi}).  The scaled
variants used internally are

    IU~(z) = e^{(1-a) z} I_U(z),   IM~(z) = e^{-a z} I_M(z),
    e^{-a z} u_p(z) = Msc(z) IU~(z) + U(z) IM~(z),   Msc = e^{-z} M.

IM~ at a sorted array of z comes from one outward pass of fixed GK15 panels
from z_ref: between consecutive abscissae z_j < z_{j+1}

    IM~(z_{j+1}) = e^{-a (z_{j+1} - z_j)} IM~(z_j)
                   + int_{z_j}^{z_{j+1}} Msc(xi) w~(xi) e^{a (xi - z_{j+1})} dxi,

w~ = kappa xi^{gamma-1}; since 0 < a < 1/2 the carried sum only shrinks.

IU~ swaps the order of integration: with the Laplace integral of U
(DLMF 13.4.4) inside, the xi-integral is a regularized upper incomplete
gamma Q (DLMF 8.2.4), and with b = 1 - a + t

    IU~(z) = (c/s) int_0^inf t^{alpha-1} (1+t)^{gamma-alpha-1} b^{-gamma}
                             e^{(1-a) z} Q(gamma, b z) dt.

The integrand is built in log space as e^{-t z} e^y Q(gamma, y), y = b z.
e^y Q has three regimes (specfun._log_gammaincc_scaled): for gamma < 1 and
y <= 1.1 the series of DLMF 8.7.3, summed with ln Gamma(1 + gamma) once per
call where scipy's gammaincc would recompute it for every element; scipy's
gammaincc up to y = gamma + 30; and y^gamma U(1, 1+gamma, y) (DLMF 8.5.3)
from a continued fraction beyond, where gammaincc would underflow.  One
GK15 rule in t, shared with U, serves all z at once.

Smooth pasting V(x*) = 1, V'(x*) = 0 fixes c2 and the boundary: with
z_ref = z the residual

    F(z) = c2(z) U'(z) + u_p'(z) - a e^{a z},
    c2(z) = (e^{a z} - u_p(z)) / U(z),

vanishes exactly at z = z*.  The boundary in rate space is x* = z*/p, the
relation consistent with the substitution z = p x and confirmed by the
shooting and finite-difference oracles.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (DomainError, NoBracketError, SingularityError,
                     ValidationError)
from .model import CirParams, ContractParams, DerivedConstants, derive_constants
from .numerics import _WGK, _XGK, find_root_bracketed
from .specfun import (_kummer_m_prime_scaled, _kummer_m_scaled,
                      _laplace_rule, _log_gammaincc_scaled,
                      _tricomi_u_raw)

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
# IM~ panel widths (see _Workspace): GK15 integrates e^{c xi} to about 1e-22
# relative on a panel of width _IM_SPAN / |c|
_IM_SPAN = 2.0
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


class _Workspace:
    """Per-(consts, contract) evaluation context for the scaled formulas.

    It holds no memo: IU~ is one fixed rule per array of z (iu_scaled) and IM~
    one outward pass of fixed panels (im_scaled); all public entry points
    funnel through here.
    """

    def __init__(self, consts: DerivedConstants, contract: ContractParams):
        self.consts = consts
        self.contract = contract
        self.alpha = consts.alpha
        self.gamma = consts.gamma
        self.a = consts.a_exp
        self.kappa_log = (math.lgamma(self.alpha) - math.lgamma(self.gamma)
                          + math.log(contract.c / consts.s))
        # IM~ panels: in ln xi at most one unit of variation of the kernel
        # xi^{gamma-1}, in xi at most one of e^{a xi}; panels are geometric
        # up to where the two widths meet and uniform beyond
        self.im_ln_step = min(math.log(2.0),
                              _IM_SPAN / max(self.gamma - 1.0, 1.0))
        self.im_width = _IM_SPAN / self.a
        self.im_xi_switch = self.im_width / self.im_ln_step

    # homogeneous basis, scaled where growth demands it
    def u_fn(self, zs: np.ndarray) -> np.ndarray:
        return _tricomi_u_raw(self.alpha, self.gamma, zs)

    def u_prime_fn(self, zs: np.ndarray) -> np.ndarray:
        return -self.alpha * _tricomi_u_raw(
            self.alpha + 1.0, self.gamma + 1.0, zs)

    def m_scaled(self, zs: np.ndarray) -> np.ndarray:
        return _kummer_m_scaled(self.alpha, self.gamma, zs)

    def m_prime_scaled(self, zs: np.ndarray) -> np.ndarray:
        return _kummer_m_prime_scaled(self.alpha, self.gamma, zs)

    def iu_scaled(self, zs: np.ndarray) -> np.ndarray:
        """IU~ at every z of zs, on one rule in t (see the module
        docstring)."""
        # for large y, e^y Q(gamma, y) ~ y^{gamma-1} / Gamma(gamma)
        t, w = _laplace_rule(self.alpha, self.gamma - 1.0, zs)
        b = 1.0 - self.a + t
        # log of the integrand, one row per z, built in place
        e = _log_gammaincc_scaled(self.gamma, np.outer(zs, b).ravel())
        e = e.reshape(zs.size, t.size)
        e -= np.outer(zs, t)
        e += ((self.gamma - self.alpha - 1.0) * np.log1p(t)
              - self.gamma * np.log(b))
        peak = e.max(axis=1)
        e -= peak[:, None]
        np.exp(e, out=e)
        return (self.contract.c / self.consts.s) * np.exp(peak) * (e @ w)

    def _panel_coord(self, xi: np.ndarray) -> np.ndarray:
        """Coordinate in which every IM~ panel has unit width: ln xi / step
        up to the switch, then (xi - switch) / width beyond it."""
        sw = self.im_xi_switch
        near = np.log(np.minimum(xi, sw)) / self.im_ln_step
        return near + np.maximum(xi - sw, 0.0) / self.im_width

    def _panel_xi(self, u: np.ndarray) -> np.ndarray:
        """Inverse of _panel_coord."""
        u_sw = math.log(self.im_xi_switch) / self.im_ln_step
        return (np.exp(np.minimum(u, u_sw) * self.im_ln_step)
                + np.maximum(u - u_sw, 0.0) * self.im_width)

    def im_scaled(self, z0: float, im0: float, zs: np.ndarray) -> np.ndarray:
        """IM~ at every z of the sorted array zs >= z0, given IM~(z0) = im0,
        by one outward pass of fixed GK15 panels (see the module
        docstring)."""
        ends = np.concatenate([[z0], zs])
        u = self._panel_coord(ends)
        n = np.ceil(np.diff(u)).astype(int)     # panels per gap
        gap = np.repeat(np.arange(zs.size), n)
        k = np.arange(gap.size) - np.repeat(np.cumsum(n) - n, n)
        du = (u[1:] - u[:-1])[gap] / n[gap]
        lo = self._panel_xi(u[gap] + k * du)
        hi = self._panel_xi(u[gap] + (k + 1) * du)
        first, last = k == 0, k == n[gap] - 1
        lo[first] = ends[gap[first]]
        hi[last] = ends[gap[last] + 1]
        half = 0.5 * (hi - lo)
        xi = (0.5 * (hi + lo))[:, None] + half[:, None] * _XGK
        f = self.m_scaled(xi.ravel()).reshape(xi.shape) * np.exp(
            self.kappa_log + (self.gamma - 1.0) * np.log(xi)
            + self.a * (xi - zs[gap][:, None]))
        gains = np.bincount(gap, weights=half * (f @ _WGK),
                            minlength=zs.size)
        decay = np.exp(-self.a * np.diff(ends))
        out = np.empty_like(zs)
        carry = im0
        for j, (d, g) in enumerate(zip(decay.tolist(), gains.tolist())):
            carry = carry * d + g
            out[j] = carry
        return out

    def residual_scaled(self, z: Real) -> Real:
        """e^{-a z} F(z) with z_ref = z (so IM~ = 0), at one z or at each z
        of an array.  Where U underflows the residual is undefined: a single
        z raises SingularityError, an array reads NaN there."""
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        u = self.u_fn(zs)
        if np.ndim(z) == 0 and u[0] == 0.0:
            raise SingularityError(f"U(alpha, gamma, z) underflowed at "
                                   f"z = {z!r}")
        iu = self.iu_scaled(zs)
        with np.errstate(divide="ignore", invalid="ignore"):
            res = ((1.0 - self.m_scaled(zs) * iu) * self.u_prime_fn(zs) / u
                   + self.m_prime_scaled(zs) * iu - self.a)
        res[u == 0.0] = np.nan
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
    u_at_star: float = field(repr=False, compare=False, default=0.0)
    amp: float = field(repr=False, compare=False, default=0.0)


def _branch(sol: SteadyStateSolution,
            xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, dV/dx) on the continuation branch at each rate x >= x* of the
    array xs, in any order, at z = max(p x, z*), everything in scaled space:

        V     = g(z) U(z) / U(z*) + Msc(z) IU~(z) + U(z) IM~(z),
        dV/dx = p (g U' / U(z*) + Msc' IU~ + U' IM~ - a V),
        g(z)  = amp e^{-a (z - z*)},

    with one call of each basis function and of iu_scaled per chunk of at
    most _SCAN_POINTS sorted abscissae, IM~ carried from chunk to chunk."""
    ws = sol.workspace
    z = np.maximum(ws.consts.p * xs, sol.z_star)
    order = np.argsort(z, kind="stable")
    zs = z[order]
    v = np.empty_like(zs)
    dv = np.empty_like(zs)
    z0, im0 = sol.z_star, 0.0
    for lo in range(0, zs.size, _SCAN_POINTS):
        part = slice(lo, lo + _SCAN_POINTS)
        c = zs[part]
        u, u_p = ws.u_fn(c), ws.u_prime_fn(c)
        iu = ws.iu_scaled(c)
        im = ws.im_scaled(z0, im0, c)
        z0, im0 = float(c[-1]), float(im[-1])
        g = sol.amp * np.exp(-ws.a * (c - sol.z_star))
        v[part] = g * u / sol.u_at_star + ws.m_scaled(c) * iu + u * im
        dv[part] = ws.consts.p * (g * u_p / sol.u_at_star
                                  + ws.m_prime_scaled(c) * iu + u_p * im
                                  - ws.a * v[part])
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
    consts = derive_constants(cir)
    ws = _Workspace(consts, contract)

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
    u_star = float(ws.u_fn(zs)[0])
    if u_star == 0.0:
        raise SingularityError("U underflowed at the solved boundary")
    # e^{-a z*} u_p(z*) with z_ref = z*, where IM~ = 0
    up_t = float(ws.m_scaled(zs)[0] * ws.iu_scaled(zs)[0])
    amp = 1.0 - up_t                      # V(x*) = amp + up_t = 1 exactly
    c2 = math.exp(consts.a_exp * z_star) * amp / u_star

    sol = SteadyStateSolution(
        cir=cir, contract=contract, consts=consts,
        z_star=z_star, x_star=x_star, c2=c2,
        diagnostics=Diagnostics(0.0, 0.0, 0.0),
        workspace=ws, u_at_star=u_star, amp=amp)

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
