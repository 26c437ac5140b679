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

Small alpha.  With t = u^{1/alpha} the integrand varies on a scale of alpha
in 1 - u, so the u-panels past u = 1/2 are graded geometrically toward
u = 1, down to 1 - u ~ alpha/20 (Davis & Rabinowitz, Methods of Numerical
Integration, 2nd ed. 1984, 2.12 and 4.8): one rule, one pass at every
alpha, from 26 panels in u at alpha >= 2 to 33 at alpha = 8.3e-4.

Measured against mpmath at 40 digits on 12 alpha in [8.3e-4, 21], gamma in
{0.0043, 0.05, 0.5, 3, 24, 41, 180} and 12 z in [1e-3, 500], on one array
and at single points: ln U within 7.1e-13 absolute, U'/U and U''/U within
7.1e-13 relative; at alpha = 8.3e-4 within 1.1e-13 up to gamma = 180.
Between the adjacent floats of alpha where the rule gains a panel, all
three jump by at most 5.5e-14 for alpha >= 6e-6.  Below that, nodes u
within a few float steps of 1 limit the rule, and the error grows to
4.3e-12 at alpha = 1e-6 and 1.2e-3 at 1e-14; the supported box has
alpha >= 1.2e-4.

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


# The inner u-panels of _laplace_rule on (0, 1], indexed by m: 23 geometric
# from 1e-18 to 1/2, m geometric in 1 - u by factors of 3, one up to u = 1;
# each call scales them to u in (0, t_split^alpha].  Past m = 32 the last
# edge 1 - 0.5/3^m is within one float step of 1.
_U_RULES = tuple(gk15_panels(np.concatenate(
    [np.geomspace(1e-18, 0.5, 24), 1.0 - 0.5 / 3.0 ** np.arange(1, m + 1),
     [1.0]])) for m in range(33))


def _laplace_rule(alpha: float, g: float,
                  zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t, weights w with sum(w f(t)) ~ int_0^inf t^{alpha-1} f(t) dt at
    every z of zs, for f smooth on (0, 1] and decaying like (z t)^g e^{-z t}.
    GK15 panels: the fixed panels _U_RULES[m] in u = t^alpha scaled to
    (0, t_split^alpha], t_split = min(1, 1/z_max), which turns t^{alpha-1} dt
    into du / alpha; then geometric in t, each a fraction of the width
    1/sqrt(g) of the peak of y^g e^{-y} in ln y, up to y = 60 + 3g at z_min,
    where y - g ln y >= 50 + g - g ln g puts it e^{-50} below.  The
    m = ceil(log_3(10 / min(alpha, 2))) u-panels graded toward u = 1 reach
    down to 1 - u ~ alpha/20 (module docstring, Small alpha)."""
    m = math.ceil((math.log(10.0) - math.log(min(alpha, 2.0)))
                  / math.log(3.0))
    u_nodes, u_weights = _U_RULES[min(m, len(_U_RULES) - 1)]
    t_split = min(1.0, 1.0 / float(zs.max()))
    t_max = (60.0 + 3.0 * max(g, 0.0)) / float(zs.min())
    step = min(math.log(2.0), 1.3 / math.sqrt(max(g, 1.0)))
    ln_span = math.log(t_max / t_split)
    t_outer, w_outer = gk15_panels(t_split * np.exp(
        np.linspace(0.0, ln_span, math.ceil(ln_span / step) + 1)))
    return (np.concatenate([t_split * u_nodes ** (1.0 / alpha), t_outer]),
            np.concatenate([(t_split ** alpha / alpha) * u_weights,
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
    """(ln U(alpha, gamma, z), U'/U, U''/U) at every z of zs from one rule
    pass at alpha, with U'/U = -<t> and U''/U = <t^2>."""
    if alpha <= 0.0:
        raise DomainError(f"U requires alpha > 0, got {alpha!r}")
    _check_z(zs, "U")
    if zs.size == 0:
        return np.empty_like(zs), np.empty_like(zs), np.empty_like(zs)
    log_u, mean_t, mean_tt = _u_panels(alpha, gamma, zs)
    return log_u, -mean_t, mean_tt


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
