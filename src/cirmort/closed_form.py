"""Analytical steady-state solution: the annuity form of the value function,
the smooth-pasting boundary residual, the boundary solve, and evaluation of
V(x).

Annuity form.  The steady ODE

    (sigma^2/2) x V'' + k (theta - x) V' - x V + c = 0

has the decaying particular solution A(x) = c int_0^inf P(x, t) dt, the value
of a loan that is never prepaid, where P is the Cox-Ingersoll-Ross
zero-coupon bond price (it solves the ODE by Feynman-Kac; the tests'
closed_form_reference.bond_price_terms gives it in t).  With
s = sqrt(k^2 + 2 sigma^2), lam = (k - s)/sigma^2, p = 2s/sigma^2 and
z = p x, the decaying homogeneous solution is
W(x) = e^{lam x} U(alpha, gamma, z), so every decaying solution is A + C W.
Smooth pasting V(x*) = 1, V'(x*) = 0 gives C = (1 - A(x*)) / W(x*) and the
boundary residual

    R(x) = (1 - A) (lam + p U'/U) + A',
    U'/U = -<t>,

where <t> is the mean of t under the weight e^{-z t} t^{alpha-1}
(1 + t)^{gamma-alpha-1} of U's Laplace integral, so one pass of that rule
gives ln U and U'/U (specfun._tricomi_u_raw).  R's root is x*, refined by
Newton in ln z on one 0-d pass per step, with R's slope from that pass's
U''/U = <t^2> and A''.  One pass at z* and the 7 diagnostic probes then
gives V below its U(z*) and 1 - A(x*) (the first row) and the diagnostics
(the whole pass, through _combine).
A decreases (P = A_P e^{-B x}, B > 0) and U'/U < 0 tends to -inf as z -> 0,
so R < 0 at every x > 0 if A(0) <= 1 and R > 0 near 0 if A(0) > 1: a
boundary exists if and only if A(0) > 1, and then x* <= c.  The value on the
branch x >= x* is

    V(x) = A(x) + (1 - A(x*)) e^{lam (x - x*)} U(z) / U(z*).

Annuity.  In the bond variable b = B(t) = B_inf v, B_inf = -lam, v in
[0, 1) (Cox, Ingersoll & Ross, Econometrica 53, 1985; ROADMAP item 8's
w = a (1 - v), a = a_exp), the t -> inf tail is the endpoint weight of

    A = c/(s (1-a)) int_0^1 (1-v)^{alpha-1} (1 + a v/(1-a))^{gamma-alpha-1}
        e^{-x b} dv,

and A', A'' take -b, b^2 under the integral.  The nodes
(_Workspace._annuity_nodes) are U's Gauss-Jacobi unit rule for that weight
on 1 - v in (0, rho], rho <= 1/alpha, then GK15 panels geometric in 1 - v
up to 1/2 and in v down to v_min <= 1e-3 min(1, 1/(B_inf x_max)), x_max
the largest x of a pass, and one panel on [0, v_min].  Each node keeps the
x-free part e of its exponent, so (A, A', A'') = sum e^{e - x b}
(1, -b, b^2) is one matrix product per array of x >= 0 (p x finite).
Against a 30-digit mpmath quadrature of the w-integral on 25 sets at 10 x
from 0 to 1e12, A, A' and A'' agree within 4.9e-15 relative.
U enters only through U'/U, U''/U and as exp of a difference of logs,
so nothing overflows.  _rows alone splits V into its stopped rows (1, 0, 0)
and _combine's V, V', V'' (V'' within 7.8e-14 of the sum of its terms'
sizes against mpmath), to which ode_residual and diagnose apply the ODE.
Near x* with A >> 1 the factor 1 - A(x*) multiplies U's error, so U'/U
must hold its accuracy at small alpha too (specfun, Inner range).  The
paper's constant c2 is no part of the solve: c2(solution) computes it on
demand.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (BoundaryBelowFloorError, ConvergenceError, DomainError,
                     NoBracketError, ValidationError)
from .model import (RATE_FLOOR, CirParams, ContractParams, DerivedConstants,
                    derive_constants, require_unit_balance)
from .specfun import (_UNIT_NODES, _UNIT_WEIGHTS, _jacobi_unit,
                      _LaplaceRule, _log_msc_and_ratio, _tricomi_u_raw)

__all__ = ["SteadyStateSolution", "Diagnostics", "DiagnosticsWarning",
           "ValueCurve", "solve_boundary", "value", "value_derivative",
           "diagnose", "ode_residual", "value_curve", "c2"]

Real = Union[float, np.ndarray]

_CHUNK = 64
# Largest z_max/z_min of one _branch pass.  U's rule reaches from
# t = min(1, 1/z_max) to reach/z_min, so z t stays below 1e100 reach and
# z_max > 1 adds a bounded number of panels.  verify's widest chunk spans
# 63 decades on 3000 draws over ROADMAP item 11's wide box.
_Z_RATIO = 1e100
_END_E = np.log(_UNIT_WEIGHTS)          # the annuity's panel on [0, v_min]
_FLOAT_MAX = sys.float_info.max         # x <= _FLOAT_MAX / p: z = p x finite
# Bounds on a solution's diagnostics, applied by Diagnostics.bounds alone for
# solve_boundary's warning and cirmort verify's pasting and ODE checks
PASTING_VALUE_TOL = 1e-8
PASTING_SLOPE_TOL = 1e-6
ODE_RESIDUAL_TOL_PER_C = 1e-6           # times the coupon c
# Largest gamma = 2 k theta / sigma^2 that solve_boundary accepts.  U's rule
# has about sqrt(gamma) panels: a solve and a 100-point ode_residual on
# [x*, 50 theta] (k = 0.25, theta = 0.06, c = 0.05) take 0.06-0.07 s and peak
# at 96 MiB RSS at gamma = 1e5, and 0.25 s and 186 MiB at 9.9e5 (2-core
# x86-64 host).  The README box reaches 1.2e5.
GAMMA_CAP = 1e6
# solve_boundary's diagnostic probes, in units of x*
_PROBE_RATIOS = np.geomspace(1.02, 5.0, 7)
_RTOL_FLOOR = 4.0 * np.finfo(float).eps  # find_root_bracketed's least rtol


class DiagnosticsWarning(UserWarning):
    """A solved boundary's diagnostic misses its bound: the boundary or the
    value function may be less accurate than documented."""


class _Workspace:
    """Per-(cir, contract) evaluation context, through which every public
    entry point funnels: the annuity's nodes and U's Laplace rule, which
    share one Gauss-Jacobi unit rule (one dstev call) and depend on the set
    only.  Each keeps one solve window, x <= 5 c for the annuity and
    z in [p c/10, 5 p c] for U: a pass inside it takes the window's span,
    so the step-down's first decade below p c (where most boundaries lie),
    Newton's iterates there, the diagnostics on [x*, 5 x*] and V(x) for
    c/10 <= x <= 5 c share one set of nodes; other passes take their own.
    U's rule is built at the first U pass, so a set without a boundary
    never builds it.  On perfbench's solve_sets(1, 512), one solve_op each,
    all 3584 annuity passes lie in its window, one build per set, and 2892
    of 3072 U passes lie in U's window; the other 180 come from the 29 of
    329 solved sets with x* < c/10, and the run makes 426 U node builds."""

    def __init__(self, cir: CirParams, contract: ContractParams):
        self.consts = consts = derive_constants(cir)
        self.c = contract.c
        self.inner = _jacobi_unit(consts.alpha)
        self.step = min(math.log(2.0), 1.3 / math.sqrt(max(consts.alpha, 1.0)))
        self.n_w = max(math.ceil(math.log(0.5 * consts.alpha) / self.step), 0)
        width = -math.expm1(-self.step)     # the unit panel [e^{-step}, 1]
        self.panel = 1.0 - width + width * _UNIT_NODES
        self.e_panel = np.log(width * _UNIT_WEIGHTS)
        self.window = self._span(5.0 * contract.c)
        self.span = self.u_rule = None

    def _span(self, x_max: float) -> int:
        """The n of the v_min = e^{-n step}/2 <= 1e-3 min(1, 1/(B_inf x_max))
        of a pass whose largest rate is x_max."""
        return math.ceil((math.log(500.0) + math.log(
            max(-self.consts.lam * x_max, 1.0))) / self.step)

    def _annuity_nodes(self, n: int) -> np.ndarray:
        """Rows (e, 1, -b, b^2) of the annuity's nodes with n panels in v
        (module docstring, Annuity): summed with e^{e - x b}, the last three
        give A, A' and A''."""
        consts, step, n_w = self.consts, self.step, self.n_w
        alpha, gamma, a = consts.alpha, consts.gamma, consts.a_exp
        # panel j is the unit panel times top[j] = e^{-j step}/2
        log_top = math.log(0.5) - step * np.arange(max(n, n_w) + 1.0)
        q = np.multiply.outer(np.exp(log_top[:-1]), self.panel).ravel()
        e_q = np.add.outer(log_top[:-1], self.e_panel).ravel()
        k_w, k_y = n_w * self.panel.size, n * self.panel.size
        x, e_x = self.inner
        rows = np.empty((4, x.size + k_w + k_y + _UNIT_NODES.size))
        e, v = rows[0], rows[2]
        np.concatenate([1.0 - math.exp(log_top[n_w]) * x, 1.0 - q[:k_w],
                        q[:k_y], math.exp(log_top[n]) * _UNIT_NODES], out=v)
        np.concatenate([e_x + alpha * log_top[n_w],
                        e_q[:k_w] + (alpha - 1.0) * np.log(q[:k_w]), e_q[:k_y],
                        _END_E + log_top[n]], out=e)
        # (1 - v)^{alpha-1} on the panels in v; the others carry it already
        tail = x.size + k_w
        e[tail:] += (alpha - 1.0) * np.log1p(-v[tail:])
        e += ((gamma - alpha - 1.0) * np.log1p(a / (1.0 - a) * v)
              + math.log(self.c / (consts.s * (1.0 - a))))
        v *= consts.lam                     # -b
        rows[1] = 1.0
        np.multiply(v, v, out=rows[3])
        return rows

    def annuity(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """(A, dA/dx, d2A/dx2) at every rate x >= 0 of xs, an array or one
        0-d x: one matrix product over the nodes of the span of the largest
        x, or of the window x <= 5 c if it holds them all."""
        x_max = float(xs.max()) if xs.ndim else float(xs)
        span = self.window if x_max <= 5.0 * self.c else self._span(x_max)
        if span != self.span:
            rows = self._annuity_nodes(span)
            self.span, self.e, self.minus_b = span, rows[0], rows[2]
            self.weights = np.ascontiguousarray(rows[1:].T)
        e = np.multiply.outer(xs, self.minus_b)
        e += self.e
        np.exp(e, out=e)
        return tuple((e @ self.weights).T)

    def terms(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """(A, A', A'', ln U, U'/U, U''/U) at every z of zs, an array or one
        0-d z, A and its x-derivatives at x = z/p: one annuity product and
        one pass of the workspace's U rule."""
        alpha, gamma = self.consts.alpha, self.consts.gamma
        if self.u_rule is None:
            pc = self.consts.p * self.c
            self.u_rule = _LaplaceRule(alpha, gamma, (0.1 * pc, 5.0 * pc),
                                       self.inner)
        return (*self.annuity(zs / self.consts.p),
                *_tricomi_u_raw(alpha, gamma, zs, rule=self.u_rule))

    def residual_scaled(self, z: float) -> tuple[float, float]:
        """(R/p, d(R/p)/d ln z), R/p = dV/dz at x = z/p for the V that pastes
        there, at one z; the slope is z times
        -A_z (U'/U - a) + (1 - A)(U''/U - (U'/U)^2) + A_zz."""
        p, a = self.consts.p, self.consts.a_exp
        ann, ann_x, ann_xx, _, ratio, ratio2 = map(
            float, self.terms(np.float64(z)))
        res = (1.0 - ann) * (ratio - a) + ann_x / p
        slope = z * (ann_xx / (p * p) - ann_x / p * (ratio - a)
                     + (1.0 - ann) * (ratio2 - ratio * ratio))
        return res, slope


@dataclass(frozen=True)
class Diagnostics:
    pasting_value_error: float     # V(x*) - 1 on the continuation branch
    pasting_slope: float           # V'(x* from the continuation side)
    ode_residual_max: float        # max |L V - c| over probe points

    def bounds(self, c: float) -> list[tuple[str, float, float]]:
        """(field, |value|, bound) for each field, at the coupon c."""
        return [(name, abs(getattr(self, name)), bound) for name, bound in (
            ("pasting_value_error", PASTING_VALUE_TOL),
            ("pasting_slope", PASTING_SLOPE_TOL),
            ("ode_residual_max", ODE_RESIDUAL_TOL_PER_C * c))]


@dataclass(frozen=True)
class SteadyStateSolution:
    cir: CirParams
    contract: ContractParams
    consts: DerivedConstants
    z_star: float
    x_star: float
    diagnostics: Diagnostics
    workspace: _Workspace = field(repr=False, compare=False)
    log_u_at_star: float = field(repr=False, compare=False)
    amp: float = field(repr=False, compare=False)  # 1 - A(x*)


def _combine(sol: SteadyStateSolution, z: np.ndarray,
             terms: tuple) -> np.ndarray:
    """The rows (V, dV/dx, d2V/dx2) on the continuation branch at each z >= z*
    of the array z, from _Workspace.terms there:

        V       = A(x) + g,   g = amp e^{-a (z - z*)} U(z) / U(z*),
        dV/dx   = A'(x) + p g (U'/U - a),
        d2V/dx2 = A''(x) + p^2 g (U''/U - 2 a U'/U + a^2)."""
    p, a = sol.consts.p, sol.consts.a_exp
    ann, ann_x, ann_xx, log_u, ratio, ratio2 = terms
    g = sol.amp * np.exp(log_u - sol.log_u_at_star - a * (z - sol.z_star))
    return np.array([ann + g, ann_x + p * g * (ratio - a),
                     ann_xx + p * p * g * (ratio2 - 2.0 * a * ratio + a * a)])


def _branch(sol: SteadyStateSolution, xs: np.ndarray) -> np.ndarray:
    """_combine's rows at each rate x >= x* of the array xs, in any order, at
    z = max(p x, z*), one terms pass per chunk of at most _CHUNK sorted
    abscissae whose largest z is at most _Z_RATIO times its least."""
    z = np.maximum(sol.consts.p * xs, sol.z_star)
    order = z.argsort(kind="stable")
    rows = np.empty((3, z.size))
    lo = 0
    while lo < z.size:
        part = order[lo:lo + _CHUNK]
        # in Python floats z_min * _Z_RATIO overflows to inf without a warning
        part = part[z[part] <= float(z[part[0]]) * _Z_RATIO]
        rows[:, part] = _combine(sol, z[part], sol.workspace.terms(z[part]))
        lo += part.size
    return rows


def _rows(solution: SteadyStateSolution, x: Real, name: str,
          closed: bool = False) -> tuple[np.ndarray, np.ndarray, bool]:
    """(xs, rows, scalar): the rates x as an array, the rows (V, dV/dx,
    d2V/dx2) at each, (1, 0, 0) on the stopped branch x <= x* (x < x* if
    closed) and _branch's rows above it, and whether x was a scalar."""
    xs, x_top = np.asarray(x, dtype=float), _FLOAT_MAX / solution.consts.p
    if not ((xs >= 0.0) & (xs <= x_top)).all():     # False at NaN too
        raise DomainError(f"{name} requires 0 <= x <= {x_top:g}")
    scalar, xs = xs.ndim == 0, np.atleast_1d(xs)
    rows = np.zeros((3, xs.size))
    rows[0] = 1.0
    cont = xs >= solution.x_star if closed else xs > solution.x_star
    rows[:, cont] = _branch(solution, xs[cont])
    return xs, rows, scalar


def value(solution: SteadyStateSolution, x: Real) -> Real:
    """V(x): exactly 1 in the stopped region x <= x*, the closed form above
    it."""
    _, (v, _, _), scalar = _rows(solution, x, "value")
    return float(v[0]) if scalar else v


def value_derivative(solution: SteadyStateSolution, x: Real) -> Real:
    """dV/dx: 0 in the stopped region, continuation branch for x >= x*."""
    _, (_, dv, _), scalar = _rows(solution, x, "value_derivative", closed=True)
    return float(dv[0]) if scalar else dv


def _ode(solution: SteadyStateSolution, xs: np.ndarray,
         rows: np.ndarray) -> np.ndarray:
    """(sigma^2/2) x V'' + k(theta - x) V' - x V + c at each x of xs, given
    the rows (V, dV/dx, d2V/dx2) there."""
    cir = solution.cir
    v, dv, d2v = rows
    return (0.5 * cir.sigma ** 2 * xs * d2v + cir.k * (cir.theta - xs) * dv
            - xs * v + solution.contract.c)


def ode_residual(solution: SteadyStateSolution, x: Real) -> Real:
    """Steady ODE residual (sigma^2/2) x V'' + k(theta - x) V' - x V + c, at
    one x or at each x of an array, applied to the rows of _rows: exactly
    c - x on the stopped branch x <= x*, where they are (1, 0, 0)."""
    xs, rows, scalar = _rows(solution, x, "ode_residual")
    out = _ode(solution, xs, rows)
    return float(out[0]) if scalar else out


def diagnose(solution: SteadyStateSolution, probes: Real) -> Diagnostics:
    """V(x*) - 1 and V'(x*) on the continuation branch, and the largest
    |ODE residual| at the probes x* < x, p x finite, from one branch
    evaluation.  value() reads the stopped branch at x*, which is 1 by
    definition, so it cannot show a misplaced boundary."""
    xs, x_top = (np.append(solution.x_star, probes),
                 _FLOAT_MAX / solution.consts.p)
    # NaN fails; so does an empty probe set, which has no residual to take
    if not (xs.size > 1 and xs[1:].min() > xs[0] and xs.max() <= x_top):
        raise DomainError(f"diagnose requires probes x* < x <= {x_top:g}")
    return _diagnostics(solution, xs, _branch(solution, xs))


def _diagnostics(solution: SteadyStateSolution, xs: np.ndarray,
                 rows: np.ndarray) -> Diagnostics:
    """Diagnostics from the branch rows at x* and the probes xs[1:]."""
    return Diagnostics(
        float(rows[0, 0]) - 1.0, float(rows[1, 0]),
        float(np.max(np.abs(_ode(solution, xs[1:], rows[:, 1:])))))


@dataclass(frozen=True)
class ValueCurve:
    points: tuple  # of (x, v, ode_residual)


def value_curve(solution: SteadyStateSolution, x_min: float, x_max: float,
                points: int) -> ValueCurve:
    if not math.isfinite(x_max):
        raise ValidationError("x_max", "need finite x_max")
    if not (0 <= x_min < x_max):
        raise ValidationError("x_min", "need 0 <= x_min < x_max")
    if not (isinstance(points, (int, np.integer)) and points >= 2):
        raise ValidationError("points", "need an integer of at least 2 points")
    xs = np.linspace(x_min, x_max, points)
    return ValueCurve(points=tuple(zip(
        xs.tolist(), value(solution, xs).tolist(),
        ode_residual(solution, xs).tolist())))


def _msc_iu(ws: _Workspace, z: float, ann: float, ann_x: float,
            ratio: float) -> float:
    """Msc IU~ at z, given A, A' at x = z/p and U'/U at z: c2's 2x2 solve
    with z_ref = z, which needs M only through M'/M."""
    consts = ws.consts
    m_ratio = float(_log_msc_and_ratio(consts.alpha, consts.gamma, [z])[1][0])
    return ((ann_x / consts.p - (ratio - consts.a_exp) * ann)
            / (m_ratio - ratio))


def c2(solution: SteadyStateSolution) -> float:
    """c2 of the paper's form V = e^{lam x} (c2 U + u_p), u_p = M I_U + U I_M
    with z_ref = z* (a 20-digit reference in the tests), from one 0-d pass
    at z*.  There I_M = 0, so e^{-a z} u_p = Msc IU~ (Msc = e^{-z} M,
    IU~ = e^{(1-a) z} I_U, a = -lam/p), and likewise with M' for the slope,
    while e^{-a z} u_p = A + D with D a multiple of W; matching both gives

        Msc IU~ = (A_z - (U'/U - a) A) / (M'/M - U'/U),   A_z = A' / p,
        c2      = e^{a z*} (1 - Msc IU~) / U(z*).

    M'/M, a difference of logs, stays in range where M does not.  c2 is +-inf
    or 0 where e^{a z*}/U(z*) over- or underflows; ConvergenceError where M
    fails."""
    ws, z_star = solution.workspace, solution.z_star
    ann, ann_x, _, log_u, ratio, _ = map(float, ws.terms(np.float64(z_star)))
    try:
        scale = math.exp(ws.consts.a_exp * z_star - log_u)
    except OverflowError:
        scale = math.inf
    return scale * (1.0 - _msc_iu(ws, z_star, ann, ann_x, ratio))


def find_root_bracketed(f: Callable[[float], tuple[float, float]], lo: float,
                        hi: float, tol: float = 1e-10, max_iter: int = 200,
                        f_lo: tuple | None = None, f_hi: tuple | None = None
                        ) -> float:
    """Safeguarded Newton on f (Press et al., Numerical Recipes, 9.4), which
    returns (value, slope); f_lo and f_hi are those pairs at lo and hi, if
    known.  Requires values of opposite sign there; never evaluates outside
    [lo, hi].  Starts from the end with the shorter Newton step, and bisects
    where a step would leave the bracket or the slope is 0.  Stops once the
    step, which it then takes unevaluated, or the bracket is within
    tol * max(1, |x|) or so (the relative part held at _RTOL_FLOOR when tol
    is below it)."""
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


def solve_boundary(cir: CirParams, contract: ContractParams,
                   tol: float = 1e-10) -> SteadyStateSolution:
    """Locate the free boundary and assemble the solution with its pasting
    and ODE-residual diagnostics: ValidationError("m") unless m = c
    (model.require_unit_balance), ValidationError("sigma") if gamma exceeds
    GAMMA_CAP, NoBracketError if A(0) <= 1, else Newton in ln z on R/p and
    its slope (_Workspace.residual_scaled) in the first decade below z = p c
    whose lower end has R/p > 0, reusing the step-down's residuals at its
    ends; BoundaryBelowFloorError if that end is below p RATE_FLOOR.  A
    DiagnosticsWarning names each diagnostic (diagnose, 7 probes on
    [1.02 x*, 5 x*]) that misses its bound (Diagnostics.bounds)."""
    if not (tol >= 1e-12 and math.isfinite(tol)):
        raise ValidationError("tol",
                              f"must be finite and >= 1e-12, got {tol!r}")
    require_unit_balance(contract)
    two_k_theta, sigma2 = 2.0 * cir.k * cir.theta, cir.sigma ** 2
    if two_k_theta > GAMMA_CAP * sigma2:        # catches sigma^2 = 0 too
        gamma = two_k_theta / sigma2 if sigma2 else math.inf
        raise ValidationError("sigma", f"gamma = 2 k theta / sigma^2 = "
                                       f"{gamma!r} exceeds {GAMMA_CAP!r}")
    ws = _Workspace(cir, contract)
    consts = ws.consts

    ann_zero = float(ws.annuity(np.float64(0.0))[0])
    if not ann_zero > 1.0:
        raise NoBracketError(f"no interior boundary: A(0) = {ann_zero!r} <= 1",
                             annuity_at_zero=ann_zero)
    hi = lo = consts.p * contract.c
    f_hi = f_lo = ws.residual_scaled(lo)
    while not f_lo[0] > 0.0:
        hi, f_hi, lo = lo, f_lo, 0.1 * lo
        if lo < consts.p * RATE_FLOOR:
            raise BoundaryBelowFloorError(
                f"A(0) = {ann_zero!r} > 1, but x* < {RATE_FLOOR!r}")
        f_lo = ws.residual_scaled(lo)
    z_star = lo * math.exp(find_root_bracketed(
        lambda u: ws.residual_scaled(lo * math.exp(u)), 0.0, math.log(hi / lo),
        tol=tol, f_lo=f_lo, f_hi=f_hi))
    x_star = z_star / consts.p

    # diagnose's one pass; its first row, at z*, gives U(z*) and 1 - A(x*)
    xs = np.append(x_star, x_star * _PROBE_RATIOS)
    zs = np.maximum(consts.p * xs, z_star)
    terms = ws.terms(zs)
    sol = SteadyStateSolution(
        cir=cir, contract=contract, consts=consts,
        z_star=z_star, x_star=x_star, diagnostics=None, workspace=ws,
        log_u_at_star=float(terms[3][0]), amp=1.0 - float(terms[0][0]))
    diag = _diagnostics(sol, xs, _combine(sol, zs, terms))
    missed = [f"{name} = {getattr(diag, name)!r} (bound {bound!r})"
              for name, measured, bound in diag.bounds(contract.c)
              if not measured <= bound]
    if missed:
        warnings.warn("diagnostics miss their bounds: " + "; ".join(missed),
                      DiagnosticsWarning, stacklevel=2)
    return dataclasses.replace(sol, diagnostics=diag)
