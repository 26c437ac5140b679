"""Confluent hypergeometric functions M (Kummer) and U (Tricomi), their
derivatives, the Wronskian, and log-gamma.

U comes from one rule at every z > 0: panel-wise Gauss-Kronrod (GK15)
quadrature of the Laplace integral (DLMF 13.4.4)
    U = 1/Gamma(alpha) * int_0^inf e^{-z t} t^{alpha-1}
        (1 + t)^{gamma-alpha-1} dt,
on the nodes of _laplace_rule: geometric panels in u = t^alpha up to
t = min(1, 1/z_max), which absorb the t^{alpha-1} endpoint singularity, then
geometric panels in t out to e^{-50} below the integrand's peak.  All terms
are positive, so there is no cancellation and the point-to-point noise stays
at rounding level, which downstream residual checks rely on.  The sum is
taken in log space (log-sum-exp over the nodes): _tricomi_u_raw returns
ln U, which stays finite where U itself leaves float range (U(0.05, 133,
1e-3) is about 10^617), and closed_form uses U only as exp of a difference
of logs.  tricomi_u and tricomi_u_prime exponentiate and raise
RangeOverflowError where the result does not fit.  U' =
-alpha U(alpha+1, gamma+1, z) uses the same rule.

Measured relative accuracy of U against mpmath at 30 digits, for alpha in
[0.03, 21], gamma in [0.5, 41] and z in [0.01, 500]: 4e-14 on one array
spanning those z, 4e-13 at single points; ln U to 2.3e-13 absolute at
gamma = 133 and 180.

Small alpha.  Below alpha = _ALPHA_STEP = 0.03 the last u-panels map to
t = u^{1/alpha}, which GK15 cannot resolve (the rule alone is off by 1e-6 at
alpha = 8.3e-4).  There U comes from one backward step of the recurrence in
a (DLMF 13.3.7) from U(alpha+1) and U(alpha+2), which the rule resolves; U
is the minimal solution as a grows, so the backward direction is stable
(Gil, Segura & Temme, Numerical Methods for Special Functions, SIAM 2007,
ch. 4).  Measured against mpmath on 12 z in [1e-3, 500] at alpha in
{8.3e-4, 2.1e-3, 8.9e-3}: 4.5e-15 relative for gamma <= 0.5 and 1.0e-12 at
gamma = 3.  Where z < gamma the two terms of the step cancel, by up to
about gamma/alpha: the error grows to 1.4e-9 at gamma = 40 and 5e-8 at
gamma = 180 (alpha = 8.3e-4).  The rule alone does better at those z, but
it is off by up to 1e-6 at z > gamma.

Supported box.  On 2000 log-uniform draws over k in [0.01, 5], theta in
[0.003, 0.3], sigma in [0.005, 0.5] and c in [0.005, 0.2] (gamma from 6e-4
to 75,000) every solve either meets its diagnostic bounds or raises
NoBracketError.  On 51 of them M(z*) exceeds float range; ln(e^{-z} M) and
ln U do not.

M is evaluated by scipy's hyp1f1 to a target of 1e-10 relative on z in
[-50, 200] (series/rational machinery, verified to ~1e-14 on the contract
box including near-integer gamma).  Where the boundary solve needs M at
large gamma and z, _kummer_m_scaled returns ln(e^{-z} M): ln hyp1f1 - z
while hyp1f1 is in range, the large-z series (DLMF 13.7.2) summed in log
form beyond it.  U is never routed through scipy's hyperu: that
implementation loses all accuracy for gamma within ~1e-15 of an integer, a
regime gamma = 2*k*theta/sigma^2 hits for round model inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError, RangeOverflowError
from .numerics import gk15_panels

__all__ = [
    "HypergeometricParams",
    "log_gamma",
    "kummer_m",
    "kummer_m_prime",
    "tricomi_u",
    "tricomi_u_prime",
    "wronskian_mu",
]

Real = Union[float, np.ndarray]

# The Wronskian's exp() arguments beyond this are treated as out of range.
_LOG_HUGE = 690.0


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameter pair (alpha, gamma) of the confluent hypergeometric ODE."""

    alpha: float
    gamma: float


def _as_array(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _check_gamma_param(gamma: float) -> None:
    if gamma <= 0.0 and gamma == round(gamma):
        raise DomainError(
            f"gamma = {gamma!r} is a non-positive integer; M is undefined")


def kummer_m(params: HypergeometricParams, z: Real) -> Real:
    """Kummer function M(alpha, gamma, z)."""
    _check_gamma_param(params.gamma)
    zs, scalar = _as_array(z)
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    out = special.hyp1f1(params.alpha, params.gamma, zs)
    if not np.all(np.isfinite(out)):
        raise RangeOverflowError(
            f"M({params.alpha}, {params.gamma}, z) exceeds float range "
            f"at z = {zs[~np.isfinite(out)][0]!r}")
    return _ret(out, scalar)


def kummer_m_prime(params: HypergeometricParams, z: Real) -> Real:
    """dM/dz via the shifted-parameter identity (alpha/gamma) M(a+1, g+1, z)."""
    shifted = HypergeometricParams(params.alpha + 1.0, params.gamma + 1.0)
    return (params.alpha / params.gamma) * kummer_m(shifted, z)


# The inner u-panels of _laplace_rule on (0, 1]: geometric from 1e-18 to 1/2,
# then linear; each call scales them to u in (0, t_split^alpha].
_U_NODES, _U_WEIGHTS = gk15_panels(np.concatenate(
    [np.geomspace(1e-18, 0.5, 24), np.linspace(0.5, 1.0, 6)[1:]]))
# Below this alpha, U comes from one backward step of the recurrence in a
_ALPHA_STEP = 0.03


def _laplace_rule(alpha: float, g: float,
                  zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t, weights w with sum(w f(t)) ~ int_0^inf t^{alpha-1} f(t) dt at
    every z of zs, for f smooth on (0, 1] and decaying like (z t)^g e^{-z t}.
    GK15 panels: the fixed panels _U_NODES in u = t^alpha scaled to
    (0, t_split^alpha], t_split = min(1, 1/z_max), which turns t^{alpha-1} dt
    into du / alpha; then geometric in t, each a fraction of the width
    1/sqrt(g) of the peak of y^g e^{-y} in ln y, up to y = 60 + 3g at z_min,
    where y - g ln y >= 50 + g - g ln g puts it e^{-50} below."""
    t_split = min(1.0, 1.0 / float(zs.max()))
    t_max = (60.0 + 3.0 * max(g, 0.0)) / float(zs.min())
    step = min(math.log(2.0), 1.3 / math.sqrt(max(g, 1.0)))
    ln_span = math.log(t_max / t_split)
    t_outer, w_outer = gk15_panels(t_split * np.exp(
        np.linspace(0.0, ln_span, math.ceil(ln_span / step) + 1)))
    return (np.concatenate([t_split * _U_NODES ** (1.0 / alpha), t_outer]),
            np.concatenate([(t_split ** alpha / alpha) * _U_WEIGHTS,
                            w_outer * t_outer ** (alpha - 1.0)]))


def _u_panels(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """ln U at every z of zs by panel-wise GK15 over the Laplace integral,
    summed in log space (log-sum-exp over the nodes).  The integrand decays
    like (z t)^{gamma-2} e^{-z t} at large t and like (z t)^{alpha-1}
    e^{-z t} for t << 1, where large z puts the mass."""
    t, w = _laplace_rule(alpha, max(gamma - 2.0, alpha - 1.0), zs)
    e = np.log(w) + (gamma - alpha - 1.0) * np.log1p(t) - np.outer(zs, t)
    peak = e.max(axis=1)
    e -= peak[:, None]
    np.exp(e, out=e)
    return peak + np.log(e.sum(axis=1)) - math.lgamma(alpha)


def _tricomi_u_raw(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """ln U(alpha, gamma, z) at every z of zs.  For alpha < _ALPHA_STEP, one
    backward step of DLMF 13.3.7 in a, at the same gamma and z,
        U(alpha) = (z + 2 + 2 alpha - gamma) U(alpha + 1)
                   + (alpha + 1)(gamma - alpha - 2) U(alpha + 2),
    the stable direction for the minimal solution U, replaces the Laplace
    rule, which cannot resolve t^{alpha-1} there."""
    if alpha <= 0.0:
        raise DomainError(f"tricomi_u requires alpha > 0, got {alpha!r}")
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    if np.any(zs <= 0.0):
        raise DomainError("tricomi_u requires z > 0")
    if zs.size == 0:
        return np.empty_like(zs)
    z = zs.ravel()
    if alpha >= _ALPHA_STEP:
        return _u_panels(alpha, gamma, z).reshape(zs.shape)
    log_u1 = _u_panels(alpha + 1.0, gamma, z)
    ratio = np.exp(_u_panels(alpha + 2.0, gamma, z) - log_u1)
    return (log_u1 + np.log(z + 2.0 + 2.0 * alpha - gamma
                            + (alpha + 1.0) * (gamma - alpha - 2.0) * ratio)
            ).reshape(zs.shape)


def _exp_u(log_u: np.ndarray, alpha: float, gamma: float,
           zs: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        out = np.exp(log_u)
    if not np.all(np.isfinite(out)):
        raise RangeOverflowError(
            f"U({alpha}, {gamma}, z) exceeds float range "
            f"at z = {zs[~np.isfinite(out)][0]!r}")
    return out


def tricomi_u(params: HypergeometricParams, z: Real) -> Real:
    """Tricomi function U(alpha, gamma, z), z > 0."""
    zs, scalar = _as_array(z)
    a, g = params.alpha, params.gamma
    return _ret(_exp_u(_tricomi_u_raw(a, g, zs), a, g, zs), scalar)


def tricomi_u_prime(params: HypergeometricParams, z: Real) -> Real:
    """dU/dz via the shifted-parameter identity -alpha U(a+1, g+1, z)."""
    zs, scalar = _as_array(z)
    a, g = params.alpha + 1.0, params.gamma + 1.0
    return _ret(-params.alpha * _exp_u(_tricomi_u_raw(a, g, zs), a, g, zs),
                scalar)


def wronskian_mu(params: HypergeometricParams, z: Real) -> Real:
    """Closed-form Wronskian M U' - M' U = -(Gamma(gamma)/Gamma(alpha))
    z^{-gamma} e^{z}, assembled in log space."""
    if params.alpha <= 0.0 or params.gamma <= 0.0:
        raise DomainError("wronskian_mu requires alpha > 0 and gamma > 0")
    zs, scalar = _as_array(z)
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    if np.any(zs <= 0.0):
        raise DomainError("wronskian_mu requires z > 0")
    log_mag = (math.lgamma(params.gamma) - math.lgamma(params.alpha)
               - params.gamma * np.log(zs) + zs)
    if np.any(log_mag > _LOG_HUGE):
        raise RangeOverflowError("Wronskian magnitude exceeds float range")
    return _ret(-np.exp(log_mag), scalar)


def _kummer_m_scaled(alpha: float, gamma: float, z: float) -> float:
    """ln(e^{-z} M(alpha, gamma, z)) at one z > 0: ln hyp1f1 - z where
    hyp1f1 is finite and positive, else the large-z series (DLMF 13.7.2)
        e^{-z} M ~ Gamma(gamma)/Gamma(alpha) z^{alpha-gamma}
                   sum_n (gamma-alpha)_n (1-alpha)_n / (n! z^n)
    in log form, summed until a term falls below 1e-17 of the sum.  Its
    terms shrink only while n < z - gamma; a sum that has not converged by
    then raises ConvergenceError."""
    m = float(special.hyp1f1(alpha, gamma, z))
    if math.isfinite(m) and m > 0.0:
        return math.log(m) - z
    total = term = 1.0
    for n in range(max(math.ceil(z - gamma), 0)):
        term *= (gamma - alpha + n) * (1.0 - alpha + n) / ((n + 1) * z)
        total += term
        if abs(term) <= 1e-17 * total:
            return (math.lgamma(gamma) - math.lgamma(alpha)
                    + (alpha - gamma) * math.log(z) + math.log(total))
    raise ConvergenceError(
        f"the large-z series of M({alpha}, {gamma}, {z}) does not converge")
