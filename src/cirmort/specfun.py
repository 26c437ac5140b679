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
at rounding level, which downstream residual checks rely on.  U' =
-alpha U(alpha+1, gamma+1, z) and closed_form's tail integral IU~ use the
same rule.

Measured relative accuracy of U against mpmath at 30 digits, for alpha in
[0.03, 21], gamma in [0.5, 41] and z in [0.01, 500]: 4e-14 on one array
spanning those z, 4e-13 at single points.  At smaller alpha the last linear
u-panels map to t = u^{1/alpha}, which GK15 cannot resolve once 1/alpha is
well above 22: the error is 6e-12 at alpha = 0.01, 8e-8 at 0.003 and 5e-6
at 0.001.

The tail integral IU~ also needs e^y Q(gamma, y), Q the regularized upper
incomplete gamma function, at every (z, t) node pair, which makes it the
hot spot of a solve.  _log_gammaincc_scaled takes it from three regimes:
for gamma < 1 and y <= _SERIES_Y_MAX, the series of DLMF 8.7.3 (Gil, Segura
& Temme, Numerical Methods for Special Functions, SIAM 2007, ch. 8),
vectorized with ln Gamma(1 + gamma) computed once per call, where scipy's
gammaincc sums the same series but recomputes that term for every element
and runs 10-50x slower than elsewhere; scipy's gammaincc up to y = gamma +
_CF_MARGIN; and a continued fraction beyond, where gammaincc underflows.
Measured against mpmath: within 1.3e-14 on gamma in [0.002, 0.999] and y in
[1e-8, 3].

M is evaluated by scipy's hyp1f1 to a target of 1e-10 relative on z in
[-50, 200] (series/rational machinery, verified to ~1e-14 on the contract
box including near-integer gamma).  U is never routed through scipy's
hyperu: that implementation loses all accuracy for gamma within ~1e-15 of
an integer, a regime gamma = 2*k*theta/sigma^2 hits for round model inputs.

The _scaled helpers return e^{-z} M and friends so downstream code can work
entirely in overflow-free scaled space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError, RangeOverflowError
from .numerics import _WGK, _XGK

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


def _gk15_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 nodes and weights of the panels between consecutive edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * _XGK[None, :]).ravel(),
            (half[:, None] * _WGK[None, :]).ravel())


# The inner u-panels of _laplace_rule on (0, 1]: geometric from 1e-18 to 1/2,
# then linear; each call scales them to u in (0, t_split^alpha].
_U_NODES, _U_WEIGHTS = _gk15_panels(np.concatenate(
    [np.geomspace(1e-18, 0.5, 24), np.linspace(0.5, 1.0, 6)[1:]]))


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
    t_outer, w_outer = _gk15_panels(t_split * np.exp(
        np.linspace(0.0, ln_span, math.ceil(ln_span / step) + 1)))
    return (np.concatenate([t_split * _U_NODES ** (1.0 / alpha), t_outer]),
            np.concatenate([(t_split ** alpha / alpha) * _U_WEIGHTS,
                            w_outer * t_outer ** (alpha - 1.0)]))


def _u_panels(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """U at every z of zs by panel-wise GK15 over the Laplace integral,
    whose integrand decays like (z t)^{gamma-2} e^{-z t} at large t and
    like (z t)^{alpha-1} e^{-z t} for t << 1, where large z puts the mass."""
    t, w = _laplace_rule(alpha, max(gamma - 2.0, alpha - 1.0), zs)
    log_f = (gamma - alpha - 1.0) * np.log1p(t) - math.lgamma(alpha)
    return np.exp(-zs[:, None] * t[None, :] + log_f[None, :]) @ w


def _tricomi_u_raw(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    if alpha <= 0.0:
        raise DomainError(f"tricomi_u requires alpha > 0, got {alpha!r}")
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    if np.any(zs <= 0.0):
        raise DomainError("tricomi_u requires z > 0")
    if zs.size == 0:
        return np.empty_like(zs)
    out = _u_panels(alpha, gamma, zs.ravel()).reshape(zs.shape)
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
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
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
# Up to y = _SERIES_Y_MAX, for gamma < 1, gammaincc may take the slow series
# branch that _log_gammaincc_series replaces (see _series_entries).
_SERIES_Y_MAX = 1.1
# zeta(2), ..., zeta(42): the Taylor coefficients of ln Gamma(1 + x) at 0
_ZETA_N = np.arange(2, 43)
_ZETA = special.zeta(_ZETA_N.astype(float))


def _lgamma1p(x: float) -> float:
    """ln Gamma(1 + x) for 0 < x < 1, from its Taylor series
    -euler_gamma x + sum_n (-x)^n zeta(n) / n at 0 for x <= 1/2, and from
    ln x + ln Gamma(x) at x - 1 above (cephes lgam1p): accurate to rounding
    where math.lgamma(1 + x) loses the digits of x below 1 in 1 + x."""
    if x > 0.5:
        return math.log(x) + _lgamma1p(x - 1.0)
    return -np.euler_gamma * x + float(np.sum(_ZETA * (-x) ** _ZETA_N
                                              / _ZETA_N))


def _log_gammaincc_series(gamma: float, ys: np.ndarray) -> np.ndarray:
    """log(e^y Q(gamma, y)) for 0 < gamma < 1 and 0 < y <= _SERIES_Y_MAX
    (DLMF 8.7.3, cephes igamc_series), with ln Gamma(1 + gamma) once:
    Q = -expm1(gamma ln y - ln Gamma(1 + gamma))
        - (y^gamma / Gamma(gamma)) sum_{n>=1} (-y)^n / (n! (gamma + n)).
    """
    lg1p = _lgamma1p(gamma)
    ln_y = np.log(ys)
    fac = np.ones_like(ys)
    total = np.zeros_like(ys)
    for n in range(1, 100):
        fac *= -ys / n
        term = fac / (gamma + n)
        total += term
        # 2^-53: the unit roundoff
        if np.all(np.abs(term) <= 2.0 ** -53 * np.abs(total)):
            break
    else:
        raise ConvergenceError("incomplete gamma series: no convergence in "
                               f"100 terms, gamma = {gamma!r}")
    # y^gamma / Gamma(gamma) = gamma y^gamma / Gamma(1 + gamma)
    x = gamma * ln_y - lg1p
    return ys + np.log(-np.expm1(x) - gamma * np.exp(x) * total)


def _series_entries(gamma: float, ys: np.ndarray) -> np.ndarray:
    """Indices of the ys where scipy's gammaincc sums the series of
    _log_gammaincc_series (cephes igamc, gamma < 1): y <= _SERIES_Y_MAX and
    gamma ln y >= -0.4 up to y = 1/2, 1.1 y >= gamma above; at the other
    y <= _SERIES_Y_MAX it sums the fast series of P = 1 - Q."""
    idx = np.flatnonzero(ys <= _SERIES_Y_MAX)
    y = ys[idx]
    return idx[np.where(y > 0.5, 1.1 * y >= gamma, gamma * np.log(y) >= -0.4)]


def _log_gammaincc_scaled(gamma: float, ys: np.ndarray) -> np.ndarray:
    """log(e^y Q(gamma, y)), Q = Gamma(gamma, y)/Gamma(gamma) (DLMF 8.2.4), for
    y > 0, in three regimes:
    - gamma < 1 and y <= _SERIES_Y_MAX, where gammaincc would sum the same
      series (_series_entries): _log_gammaincc_series, vectorized, with
      ln Gamma(1 + gamma) computed once per call instead of per element;
    - up to y = gamma + _CF_MARGIN otherwise: scipy's gammaincc;
    - past gamma + _CF_MARGIN, where gammaincc would underflow near
      y = 745: e^y Gamma(gamma, y) = y^gamma U(1, 1 + gamma, y) (DLMF 8.5.3)
      with U from the even contraction of Legendre's continued fraction
      (DLMF 8.9.2), summed by the modified Lentz method."""
    out = np.empty_like(ys)
    far = ys > gamma + _CF_MARGIN
    near = ~far
    if gamma < 1.0:
        series = _series_entries(gamma, ys)
        out[series] = _log_gammaincc_series(gamma, ys[series])
        near[series] = False
    # b holds one subset of ys at a time: ys may be large
    b = ys[near]
    out[near] = b + np.log(special.gammaincc(gamma, b))
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
