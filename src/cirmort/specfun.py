"""Confluent hypergeometric functions M (Kummer) and U (Tricomi), their
derivatives, the Wronskian, and log-gamma.

Accuracy targets (relative): M 1e-10 on z in [-50, 200], U 1e-8 on
z in (0.01, 500], for alpha in (0, 20] and gamma in (0, 40].

Region split for U:
  * z >= 0.5: generalized Gauss-Laguerre quadrature (n = 250, weight
    x^{alpha-1} e^{-x}) of the Laplace integral
    U = z^{-alpha}/Gamma(alpha) * int_0^inf e^{-u} u^{alpha-1}
        (1 + u/z)^{gamma-alpha-1} du.
    All terms are positive, so there is no cancellation and the point-to-point
    noise stays at rounding level, which downstream residual checks rely on.
  * z < 0.5: panel-wise Gauss-Kronrod quadrature of the same integral in the
    t variable, split at t = 1 with the substitution t = u^{1/alpha} on (0, 1]
    to absorb the t^{alpha-1} endpoint singularity.

M is evaluated by scipy's hyp1f1 (series/rational machinery, verified to
~1e-14 on the contract box including near-integer gamma).  U is never routed
through scipy's hyperu: that implementation loses all accuracy for gamma
within ~1e-15 of an integer, a regime gamma = 2*k*theta/sigma^2 hits for
round model inputs.

The _scaled helpers return e^{-z} M and friends so downstream code can work
entirely in overflow-free scaled space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError, RangeOverflowError

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

_GGL_ORDER = 250
_Z_SWITCH = 0.5
# Overflow guards: exp() arguments beyond this are treated as out of range.
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


@lru_cache(maxsize=128)
def _laguerre_rule(alpha: float):
    nodes, weights = special.roots_genlaguerre(_GGL_ORDER, alpha - 1.0)
    return nodes, weights


def _u_laguerre(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    nodes, weights = _laguerre_rule(alpha)
    t = nodes[None, :] / zs[:, None]
    core = np.exp((gamma - alpha - 1.0) * np.log1p(t)) @ weights
    return np.exp(-alpha * np.log(zs) - math.lgamma(alpha)) * core


def _laplace_rule(alpha: float, g: float,
                  zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t, weights w with sum(w f(t)) ~ int_0^inf t^{alpha-1} f(t) dt at
    every z of zs, for f smooth on (0, 1] and decaying like (z t)^g e^{-z t}.
    GK15 panels: geometric in u = t^alpha up to min(1, 1/z_max), which turns
    t^{alpha-1} dt into du / alpha; then geometric in t, each a fraction of
    the width 1/sqrt(g) of the peak of y^g e^{-y} in ln y, up to y = 60 + 3g
    at z_min, where y - g ln y >= 50 + g - g ln g puts it e^{-50} below."""
    from .numerics import _WGK, _XGK

    def panels(edges):
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        return ((mid[:, None] + half[:, None] * _XGK[None, :]).ravel(),
                (half[:, None] * _WGK[None, :]).ravel())

    t_split = min(1.0, 1.0 / float(zs.max()))
    t_max = (60.0 + 3.0 * max(g, 0.0)) / float(zs.min())
    u, w_inner = panels(t_split ** alpha * np.concatenate(
        [np.geomspace(1e-18, 0.5, 24), np.linspace(0.5, 1.0, 6)[1:]]))
    step = min(math.log(2.0), 1.3 / math.sqrt(max(g, 1.0)))
    t_outer, w_outer = panels(np.geomspace(
        t_split, t_max, math.ceil(math.log(t_max / t_split) / step) + 1))
    return (np.concatenate([u ** (1.0 / alpha), t_outer]),
            np.concatenate([w_inner / alpha,
                            w_outer * t_outer ** (alpha - 1.0)]))


def _u_panels(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """Small-z evaluation by panel-wise GK15 over the Laplace integral,
    whose integrand decays like (z t)^{gamma-2} e^{-z t}."""
    t, w = _laplace_rule(alpha, gamma - 2.0, zs)
    log_f = (gamma - alpha - 1.0) * np.log1p(t) - math.lgamma(alpha)
    return np.exp(-zs[:, None] * t[None, :] + log_f[None, :]) @ w


def _tricomi_u_raw(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    if alpha <= 0.0:
        raise DomainError(f"tricomi_u requires alpha > 0, got {alpha!r}")
    if np.any(zs <= 0.0):
        raise DomainError("tricomi_u requires z > 0")
    out = np.empty_like(zs)
    big = zs >= _Z_SWITCH
    if big.any():
        out[big] = _u_laguerre(alpha, gamma, zs[big])
    if (~big).any():
        out[~big] = _u_panels(alpha, gamma, zs[~big])
    if not np.all(np.isfinite(out)):
        raise RangeOverflowError(
            f"U({alpha}, {gamma}, z) exceeds float range "
            f"at z = {zs[~np.isfinite(out)][0]!r}")
    return out


def tricomi_u(params: HypergeometricParams, z: Real) -> Real:
    """Tricomi function U(alpha, gamma, z), z > 0."""
    zs, scalar = _as_array(z)
    return _ret(_tricomi_u_raw(params.alpha, params.gamma, zs), scalar)


def tricomi_u_prime(params: HypergeometricParams, z: Real) -> Real:
    """dU/dz via the shifted-parameter identity -alpha U(a+1, g+1, z)."""
    zs, scalar = _as_array(z)
    out = -params.alpha * _tricomi_u_raw(
        params.alpha + 1.0, params.gamma + 1.0, zs)
    return _ret(out, scalar)


def wronskian_mu(params: HypergeometricParams, z: Real) -> Real:
    """Closed-form Wronskian M U' - M' U = -(Gamma(gamma)/Gamma(alpha))
    z^{-gamma} e^{z}, assembled in log space."""
    if params.alpha <= 0.0 or params.gamma <= 0.0:
        raise DomainError("wronskian_mu requires alpha > 0 and gamma > 0")
    zs, scalar = _as_array(z)
    if np.any(zs <= 0.0):
        raise DomainError("wronskian_mu requires z > 0")
    log_mag = (math.lgamma(params.gamma) - math.lgamma(params.alpha)
               - params.gamma * np.log(zs) + zs)
    if np.any(log_mag > _LOG_HUGE):
        raise RangeOverflowError("Wronskian magnitude exceeds float range")
    return _ret(-np.exp(log_mag), scalar)


# ---------------------------------------------------------------------------
# Scaled-space helpers (internal): e^{-z} M stays bounded for alpha < gamma,
# so downstream formulas can avoid e^{+z} factors entirely.

def _kummer_m_scaled_asymptotic(alpha: float, gamma: float,
                                zs: np.ndarray) -> np.ndarray:
    # e^{-z} M ~ (Gamma(gamma)/Gamma(alpha)) z^{alpha-gamma}
    #            sum_n (gamma-alpha)_n (1-alpha)_n / (n! z^n)
    prefix = np.exp(math.lgamma(gamma) - math.lgamma(alpha)
                    + (alpha - gamma) * np.log(zs))
    total = np.ones_like(zs)
    term = np.ones_like(zs)
    for n in range(60):
        term = term * (gamma - alpha + n) * (1.0 - alpha + n) / ((n + 1) * zs)
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    return prefix * total


def _kummer_m_scaled(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """e^{-z} M(alpha, gamma, z) for z >= 0, overflow-free."""
    log_est = (math.lgamma(gamma) - math.lgamma(alpha)
               + (alpha - gamma) * np.log(np.maximum(zs, 1.0))
               + zs)
    # the z bound keeps the explicit exp(-z) factor away from underflow
    direct = (log_est <= _LOG_HUGE) & (zs <= _LOG_HUGE)
    out = np.empty_like(zs)
    if direct.any():
        out[direct] = special.hyp1f1(alpha, gamma, zs[direct]) * np.exp(-zs[direct])
    if (~direct).any():
        out[~direct] = _kummer_m_scaled_asymptotic(alpha, gamma, zs[~direct])
    return out


def _kummer_m_prime_scaled(alpha: float, gamma: float,
                           zs: np.ndarray) -> np.ndarray:
    """e^{-z} dM/dz."""
    return (alpha / gamma) * _kummer_m_scaled(alpha + 1.0, gamma + 1.0, zs)


# Past gamma + _CF_MARGIN, e^y Q(gamma, y) comes from the continued fraction:
# gammaincc underflows near y = 745, and the fraction converges fast there.
_CF_MARGIN = 30.0


def _log_gammaincc_scaled(gamma: float, ys: np.ndarray) -> np.ndarray:
    """log(e^y Q(gamma, y)), Q = Gamma(gamma, y)/Gamma(gamma) (DLMF 8.2.4), for
    y > 0.  Past gamma + _CF_MARGIN, e^y Gamma(gamma, y) = y^gamma U(1,
    1 + gamma, y) (DLMF 8.5.3) with U from the even contraction of Legendre's
    continued fraction (DLMF 8.9.2), summed by the modified Lentz method."""
    out = np.empty_like(ys)
    far = ys > gamma + _CF_MARGIN
    # b holds one subset of ys at a time: ys may be large
    b = ys[~far]
    out[~far] = b + np.log(special.gammaincc(gamma, b))
    b = ys[far]
    out[far] = gamma * np.log(b) - math.lgamma(gamma)
    b += 1.0 - gamma
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    frac = d.copy()
    for i in range(1, 2000):
        an = -i * (i - gamma)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        frac *= delta
        if np.all(np.abs(delta - 1.0) <= 4e-16):
            break
    else:
        raise ConvergenceError("incomplete gamma continued fraction: no "
                               f"convergence in 2000 terms, gamma = {gamma!r}")
    out[far] += np.log(frac)
    return out
