"""Confluent hypergeometric functions in log space: ln U, U'/U and U''/U
(Tricomi), ln(e^{-z} M) (Kummer), and the log of their Wronskian.

The solver uses U only through U'/U, U''/U and differences of ln U, and M
only through M'/M at one z, so these are the only forms kept; none of them
overflows where U or M itself leaves float range (U(0.05, 133, 1e-3) is
about 10^617).

U comes from one rule at every z > 0: panel-wise Gauss-Kronrod (GK15)
quadrature of the Laplace integral (DLMF 13.4.4)
    U = 1/Gamma(alpha) * int_0^inf e^{-z t} t^{alpha-1}
        (1 + t)^{gamma-alpha-1} dt,
on the nodes of _laplace_rule: geometric panels in u = t^alpha up to
t = min(1, 1/z_max), which absorb the t^{alpha-1} endpoint singularity, then
geometric panels in t out to e^{-50} below the integrand's peak.  All terms
are positive, so there is no cancellation and the point-to-point noise stays
at rounding level, which downstream residual checks rely on.  The sum is
taken in log space (log-sum-exp over the nodes).  Differentiating under the
integral gives U' = -1/Gamma(alpha) int t e^{-z t} ..., so U'/U = -<t>, the
mean of t under U's own Laplace weight, and likewise U''/U = <t^2>: one pass
of the rule gives ln U, U'/U and U''/U (_tricomi_u_raw).

Measured relative accuracy of U against mpmath at 30 digits, for alpha in
[0.03, 21], gamma in [0.5, 41] and z in [0.01, 500]: 4e-14 on one array
spanning those z, 4e-13 at single points; ln U to 2.3e-13 absolute at
gamma = 133 and 180.  U'/U on the same grid: 1.0e-14 on arrays, 4.1e-13
at single points; U''/U: 8.2e-15 on arrays, 3.8e-13 at single points.

Small alpha.  Below alpha = _ALPHA_STEP = 0.03 the last u-panels map to
t = u^{1/alpha}, which GK15 cannot resolve (the rule alone is off by 1e-6 at
alpha = 8.3e-4).  There one pass of the rule at alpha + 1, which it
resolves, gives U through the contiguous relation (DLMF 13.3(i))
    U(alpha, gamma, z) = z U(alpha+1, gamma+1, z)
                         + (alpha + 1 - gamma) U(alpha+1, gamma, z),
where U(alpha+1, gamma+1)/U(alpha+1, gamma) = 1 + <t>_1 on that rule, and
U'/U and U''/U from the same moments <t>_1, <t^2>_1 (_tricomi_u_raw).
Measured against mpmath on 12 z in [1e-3, 500] at alpha in
{8.3e-4, 2.1e-3, 8.9e-3}: ln U within 4.5e-15 for gamma <= 0.5 and 6.2e-13
at gamma = 3; where z < gamma the two terms still cancel, and the error
grows to 3.4e-11 at gamma = 40 and 5.2e-10 at gamma = 180 (alpha = 8.3e-4).
U'/U and U''/U are within the same relative errors.  At the seam the two
branches agree to 5.8e-13.  Taking this step above 0.03 too would lose
accuracy at large gamma (7.1e-12 against 2.3e-13 in ln U at alpha = 0.05,
gamma = 133, same z), so the rule alone serves there.

Supported box.  On 2000 log-uniform draws over k in [0.01, 5], theta in
[0.003, 0.3], sigma in [0.005, 0.5] and c in [0.005, 0.2] (gamma from 6e-4
to 75,000) every solve either meets its diagnostic bounds or raises
NoBracketError.  On 51 of them M(z*) exceeds float range; ln(e^{-z} M) and
ln U do not.

M is scipy's hyp1f1, verified to ~1e-14 on the contract box including
near-integer gamma.  _kummer_m_scaled returns ln(e^{-z} M): ln hyp1f1 - z
while hyp1f1 is in range, the large-z series (DLMF 13.7.2) summed in log
form beyond it.  U is never routed through scipy's hyperu: that
implementation loses all accuracy for gamma within ~1e-15 of an integer, a
regime gamma = 2*k*theta/sigma^2 hits for round model inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError
from .numerics import gk15_panels

__all__ = ["log_wronskian"]


def _check_z(zs: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(zs)):
        raise DomainError("z must be finite")
    if np.any(zs <= 0.0):
        raise DomainError(f"{name} requires z > 0")


# The inner u-panels of _laplace_rule on (0, 1]: geometric from 1e-18 to 1/2,
# then linear; each call scales them to u in (0, t_split^alpha].
_U_NODES, _U_WEIGHTS = gk15_panels(np.concatenate(
    [np.geomspace(1e-18, 0.5, 24), np.linspace(0.5, 1.0, 6)[1:]]))
# Below this alpha, U comes from the rule at alpha + 1 and one contiguous step
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


def _u_panels(alpha: float, gamma: float, zs: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln U, <t>, <t^2>) at every z of zs by panel-wise GK15 over the
    Laplace integral: ln U by log-sum-exp over the nodes, <t> and <t^2> the
    moments of t under the same weights, so U'/U = -<t> and U''/U = <t^2>.
    The integrand decays like (z t)^{gamma-2} e^{-z t} at large t and like
    (z t)^{alpha-1} e^{-z t} for t << 1, where large z puts the mass."""
    t, w = _laplace_rule(alpha, max(gamma - 2.0, alpha - 1.0), zs)
    e = np.log(w) + (gamma - alpha - 1.0) * np.log1p(t) - np.outer(zs, t)
    peak = e.max(axis=1)
    e -= peak[:, None]
    np.exp(e, out=e)
    total = e.sum(axis=1)
    return (peak + np.log(total) - math.lgamma(alpha), (e @ t) / total,
            (e @ (t * t)) / total)


def _tricomi_u_raw(alpha: float, gamma: float, zs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln U(alpha, gamma, z), U'/U, U''/U) at every z of zs: one rule pass,
    with U'/U = -<t> and U''/U = <t^2>.  For alpha < _ALPHA_STEP, where the
    rule cannot resolve t^{alpha-1}, the one pass is at alpha + 1 and
        step = U(alpha)/U(alpha + 1) = z (1 + <t>_1) + alpha + 1 - gamma,
        U'/U  = -alpha (1 + <t>_1) / step,
        U''/U = alpha (<t>_1 + <t^2>_1) / step,
    from U' = -alpha U(alpha + 1, gamma + 1) and
    U'' = alpha(alpha + 1) U(alpha + 2, gamma + 2), with <.>_1 the moments
    on the rule of U(alpha + 1, gamma)."""
    if alpha <= 0.0:
        raise DomainError(f"U requires alpha > 0, got {alpha!r}")
    _check_z(zs, "U")
    if zs.size == 0:
        return np.empty_like(zs), np.empty_like(zs), np.empty_like(zs)
    if alpha >= _ALPHA_STEP:
        log_u, mean_t, mean_tt = _u_panels(alpha, gamma, zs)
        return log_u, -mean_t, mean_tt
    log_u1, mean_t1, mean_tt1 = _u_panels(alpha + 1.0, gamma, zs)
    step = zs * (1.0 + mean_t1) + alpha + 1.0 - gamma  # U(alpha)/U(alpha+1)
    return (log_u1 + np.log(step), -alpha * (1.0 + mean_t1) / step,
            alpha * (mean_t1 + mean_tt1) / step)


def log_wronskian(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """ln |W| at every z of zs, for the closed-form Wronskian
    W = M U' - M' U = -(Gamma(gamma)/Gamma(alpha)) z^{-gamma} e^{z}."""
    if alpha <= 0.0 or gamma <= 0.0:
        raise DomainError("log_wronskian requires alpha > 0 and gamma > 0")
    _check_z(zs, "log_wronskian")
    return math.lgamma(gamma) - math.lgamma(alpha) - gamma * np.log(zs) + zs


def _kummer_m_scaled(alpha: float, gamma: float, z: float) -> float:
    """ln(e^{-z} M(alpha, gamma, z)) at one z >= 0: ln hyp1f1 - z where
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
