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

IU~ swaps the order of integration: with the Laplace integral of U
(DLMF 13.4.4) inside, the xi-integral is a regularized upper incomplete
gamma Q (DLMF 8.2.4), and with b = 1 - a + t

    IU~(z) = (c/s) int_0^inf t^{alpha-1} (1+t)^{gamma-alpha-1} b^{-gamma}
                             e^{(1-a) z} Q(gamma, b z) dt.

The integrand is built in log space as e^{-t z} e^y Q(gamma, y), y = b z,
with e^y Q from y^gamma U(1, 1+gamma, y) (DLMF 8.5.3) where gammaincc would
underflow.  One GK15 rule in t, shared with small-z U, serves all z at once.

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
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (DomainError, NoBracketError, SingularityError,
                     ValidationError)
from .model import CirParams, ContractParams, DerivedConstants, derive_constants
from .numerics import find_root_bracketed, integrate_adaptive
from .specfun import (_kummer_m_prime_scaled, _kummer_m_scaled,
                      _laplace_rule, _log_gammaincc_scaled,
                      _tricomi_u_raw)

__all__ = [
    "SteadyStateSolution",
    "Diagnostics",
    "ValueCurve",
    "source_term",
    "kernel_weight",
    "particular_solution",
    "boundary_residual",
    "boundary_residual_ratio_form",
    "solve_boundary",
    "value",
    "value_derivative",
    "ode_residual",
    "value_curve",
]

Real = Union[float, np.ndarray]

_SCAN_POINTS = 64


def source_term(consts: DerivedConstants, contract: ContractParams,
                z: Real) -> Real:
    """Transformed ODE source g(z) = -(c/s) e^{a_exp z}."""
    zs = np.asarray(z, dtype=float)
    if np.any(zs < 0):
        raise DomainError("source_term requires z >= 0")
    return -(contract.c / consts.s) * np.exp(consts.a_exp * zs)


def kernel_weight(consts: DerivedConstants, contract: ContractParams,
                  xi: Real) -> Real:
    """Variation-of-parameters kernel w(xi) = (g(xi)/xi) / W(M,U)(xi)
    = kappa xi^{gamma-1} e^{-(1-a_exp) xi}, assembled in log space."""
    xs = np.asarray(xi, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("kernel_weight requires xi > 0")
    kappa_log = (math.lgamma(consts.alpha) - math.lgamma(consts.gamma)
                 + math.log(contract.c / consts.s))
    return np.exp(kappa_log + (consts.gamma - 1.0) * np.log(xs)
                  - (1.0 - consts.a_exp) * xs)


class _Workspace:
    """Per-(consts, contract) evaluation context for the scaled formulas.

    Memoizes IM~ per (z, z_ref); all public entry points funnel through here.
    """

    def __init__(self, consts: DerivedConstants, contract: ContractParams,
                 tol_quad: float = 1e-12):
        self.consts = consts
        self.contract = contract
        self.tol_quad = tol_quad
        self.alpha = consts.alpha
        self.gamma = consts.gamma
        self.a = consts.a_exp
        self.kappa_log = (math.lgamma(self.alpha) - math.lgamma(self.gamma)
                          + math.log(contract.c / consts.s))
        self._im_cache: dict[tuple[float, float], float] = {}

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

    def im_tilde(self, z: float, z_ref: float) -> float:
        """IM~(z) = int_zref^z Msc(xi) kappa xi^{gamma-1} e^{a(xi-z)} dxi."""
        z, z_ref = float(z), float(z_ref)
        if z <= z_ref:
            return 0.0
        key = (z, z_ref)
        hit = self._im_cache.get(key)
        if hit is not None:
            return hit

        def f(xis):
            return self.m_scaled(xis) * np.exp(
                self.kappa_log + (self.gamma - 1.0) * np.log(xis)
                + self.a * (xis - z))

        initial = min(64, max(8, int(z - z_ref) + 1))
        res = integrate_adaptive(f, z_ref, z, tol=self.tol_quad,
                                 initial=initial)
        self._im_cache[key] = res.value
        return res.value

    def up_tilde_pair(self, z: float, z_ref: float) -> tuple[float, float]:
        """(e^{-a z} u_p, e^{-a z} u_p') at z with the given z_ref."""
        zs = np.array([z])
        iu = float(self.iu_scaled(zs)[0])
        im = self.im_tilde(z, z_ref)
        up = float(self.m_scaled(zs)[0]) * iu + float(self.u_fn(zs)[0]) * im
        upp = (float(self.m_prime_scaled(zs)[0]) * iu
               + float(self.u_prime_fn(zs)[0]) * im)
        return up, upp

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


def particular_solution(consts: DerivedConstants, contract: ContractParams,
                        z: float, z_ref: float,
                        tol_quad: float = 1e-12) -> tuple[float, float]:
    """(u_p(z), u_p'(z)) by the split variation-of-parameters form.

    The instantaneous kernel terms cancel in u_p', so both components are
    plain basis-times-integral combinations.  Shifting z_ref moves u_p by a
    multiple of U, absorbed downstream into c2.
    """
    if not (z >= z_ref > 0):
        raise DomainError(f"need z >= z_ref > 0, got z={z!r}, z_ref={z_ref!r}")
    ws = _Workspace(consts, contract, tol_quad)
    up_t, upp_t = ws.up_tilde_pair(z, z_ref)
    scale = math.exp(consts.a_exp * z)
    return up_t * scale, upp_t * scale


def boundary_residual(consts: DerivedConstants, contract: ContractParams,
                      z_candidate: float, tol_quad: float = 1e-12) -> float:
    """Smooth-pasting residual F(z) = c2(z) U'(z) + u_p'(z) - a e^{a z}
    with z_ref = z_candidate; F(z*) = 0."""
    if not z_candidate > 0:
        raise DomainError("boundary_residual requires z_candidate > 0")
    ws = _Workspace(consts, contract, tol_quad)
    return ws.residual_scaled(z_candidate) * math.exp(
        consts.a_exp * z_candidate)


def boundary_residual_ratio_form(consts: DerivedConstants,
                                 contract: ContractParams,
                                 z_candidate: float,
                                 tol_quad: float = 1e-12) -> float:
    """Cross-check form of the boundary equation written as a ratio of U's:

        U(alpha, gamma, z) / U(alpha+1, gamma+1, z)
            = alpha (e^{a z} - u_p(z)) / (u_p'(z) - a e^{a z})

    (single Gamma(alpha)/Gamma(gamma) power in the kernel, not the squared
    factor).  Returns lhs - rhs; shares its root with boundary_residual but
    follows a different arithmetic route.
    """
    if not z_candidate > 0:
        raise DomainError("requires z_candidate > 0")
    zs = np.array([float(z_candidate)])
    u = float(_tricomi_u_raw(consts.alpha, consts.gamma, zs)[0])
    u_shift = float(_tricomi_u_raw(consts.alpha + 1.0, consts.gamma + 1.0,
                                   zs)[0])
    up, upp = particular_solution(consts, contract, z_candidate, z_candidate,
                                  tol_quad)
    e_az = math.exp(consts.a_exp * z_candidate)
    denom = upp - consts.a_exp * e_az
    if denom == 0.0 or u_shift == 0.0:
        raise SingularityError("ratio form degenerate at this z")
    return u / u_shift - consts.alpha * (e_az - up) / denom


@dataclass(frozen=True)
class Diagnostics:
    pasting_value_error: float     # V(x*) - 1
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
    c1: float                      # identically 0: e^{lam x} M grows, so
                                   # M cannot appear in a decaying solution
    diagnostics: Diagnostics
    workspace: _Workspace = field(repr=False, compare=False, default=None)
    u_at_star: float = field(repr=False, compare=False, default=0.0)
    amp: float = field(repr=False, compare=False, default=0.0)


def _branch_value(sol: SteadyStateSolution, z: float) -> float:
    """V on the continuation branch, everything in scaled space:
    V = amp e^{-a (z - z*)} U(z)/U(z*) + Msc(z) IU~(z) + U(z) IM~(z)."""
    ws = sol.workspace
    zs = np.array([float(z)])
    u = float(ws.u_fn(zs)[0])
    decay = math.exp(-ws.a * (z - sol.z_star))
    iu = float(ws.iu_scaled(zs)[0])
    im = ws.im_tilde(z, sol.z_star)
    return (sol.amp * decay * u / sol.u_at_star
            + float(ws.m_scaled(zs)[0]) * iu + u * im)


def _branch_derivative(sol: SteadyStateSolution, z: float) -> float:
    """dV/dx on the continuation branch: p (e^{-az} u)' with the analytic
    shifted-parameter derivatives of M and U."""
    ws = sol.workspace
    zs = np.array([float(z)])
    u = float(ws.u_fn(zs)[0])
    u_p = float(ws.u_prime_fn(zs)[0])
    decay = math.exp(-ws.a * (z - sol.z_star))
    iu = float(ws.iu_scaled(zs)[0])
    im = ws.im_tilde(z, sol.z_star)
    v = (sol.amp * decay * u / sol.u_at_star
         + float(ws.m_scaled(zs)[0]) * iu + u * im)
    dz = (sol.amp * decay * u_p / sol.u_at_star
          + float(ws.m_prime_scaled(zs)[0]) * iu + u_p * im
          - ws.a * v)
    return ws.consts.p * dz


def value(solution: SteadyStateSolution, x: Real) -> Real:
    """V(x): exactly 1 in the stopped region x <= x*, the closed form above
    it."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs < 0):
        raise DomainError("value requires x >= 0")
    out = np.ones_like(xs)
    cont = xs > solution.x_star
    for i in np.nonzero(cont)[0]:
        z = max(solution.consts.p * xs[i], solution.z_star)
        out[i] = _branch_value(solution, z)
    return float(out[0]) if scalar else out


def value_derivative(solution: SteadyStateSolution, x: Real) -> Real:
    """dV/dx: 0 in the stopped region, continuation branch for x >= x*."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs < 0):
        raise DomainError("value_derivative requires x >= 0")
    out = np.zeros_like(xs)
    cont = xs >= solution.x_star
    for i in np.nonzero(cont)[0]:
        z = max(solution.consts.p * xs[i], solution.z_star)
        out[i] = _branch_derivative(solution, z)
    return float(out[0]) if scalar else out


def ode_residual(solution: SteadyStateSolution, x: float,
                 step_scale: float = 1e-5) -> float:
    """Steady ODE residual (sigma^2/2) x V'' + k(theta - x) V' - x V + c at a
    continuation point, with V'' from finite differences of
    value_derivative."""
    cir = solution.cir
    if x <= solution.x_star:
        # stopped branch: V = 1, V' = V'' = 0
        return solution.contract.c - x
    h = step_scale * x
    d_hi = value_derivative(solution, x + h)
    if x - h > solution.x_star:
        d_lo = value_derivative(solution, x - h)
        v2 = (d_hi - d_lo) / (2.0 * h)
    else:
        v2 = (d_hi - value_derivative(solution, x)) / h
    v1 = value_derivative(solution, x)
    v0 = value(solution, x)
    return (0.5 * cir.sigma ** 2 * x * v2 + cir.k * (cir.theta - x) * v1
            - x * v0 + solution.contract.c)


@dataclass(frozen=True)
class ValueCurve:
    points: tuple  # of (x, v, ode_residual)


def value_curve(solution: SteadyStateSolution, x_lo: float, x_hi: float,
                n: int) -> ValueCurve:
    if not (0 <= x_lo < x_hi) or n < 2:
        raise ValidationError("points", "need 0 <= x_lo < x_hi and n >= 2")
    xs = np.linspace(x_lo, x_hi, n)
    pts = []
    for x in xs:
        pts.append((float(x), float(value(solution, float(x))),
                    float(ode_residual(solution, float(x)))))
    return ValueCurve(points=tuple(pts))


def solve_boundary(cir: CirParams, contract: ContractParams,
                   tol: float = 1e-10, tol_quad: float = 1e-12,
                   diagnostics: bool = True) -> SteadyStateSolution:
    """Locate the free boundary: geometric scan for a sign change of the
    smooth-pasting residual, Brent refinement, then assemble the solution."""
    if not tol >= 1e-12:
        raise ValidationError("tol", f"must be >= 1e-12, got {tol!r}")
    if abs(contract.m - contract.c) > 1e-15 * max(contract.m, contract.c):
        raise ValidationError(
            "m", "the steady-state solver requires the m = c normalization; "
                 "rescale reported values by m/c instead")
    consts = derive_constants(cir)
    ws = _Workspace(consts, contract, tol_quad)

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
    up_t, _ = ws.up_tilde_pair(z_star, z_star)
    amp = 1.0 - up_t                      # V(x*) = amp + up_t = 1 exactly
    c2 = math.exp(consts.a_exp * z_star) * amp / u_star

    sol = SteadyStateSolution(
        cir=cir, contract=contract, consts=consts,
        z_star=z_star, x_star=x_star, c2=c2, c1=0.0,
        diagnostics=Diagnostics(0.0, 0.0, 0.0),
        workspace=ws, u_at_star=u_star, amp=amp)

    if diagnostics:
        v_err = value(sol, x_star) - 1.0
        slope = value_derivative(sol, x_star)
        probes = np.geomspace(1.02 * x_star, 5.0 * x_star, 7)
        res_max = max(abs(ode_residual(sol, float(x))) for x in probes)
        sol = dataclasses.replace(
            sol, diagnostics=Diagnostics(v_err, slope, res_max))
    return sol
