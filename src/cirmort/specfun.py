"""Confluent hypergeometric functions in log space: ln U, U'/U and U''/U
(Tricomi), ln(e^{-z} M) and M'/M (Kummer), and the log of their Wronskian.

The solver uses U only through U'/U, U''/U and differences of ln U, and c2
uses M only through M'/M at one z, so these are the only forms kept; none
of them overflows where U or M itself leaves float range (U(0.05, 133,
1e-3) is about 10^617).

U comes from one rule at every z > 0: the Laplace integral (DLMF 13.4.4)
    U = 1/Gamma(alpha) * int_0^inf e^{-z t} t^{alpha-1}
        (1 + t)^{gamma-alpha-1} dt,
summed on the nodes of a _LaplaceRule: a Gauss-Jacobi rule on
(0, t_split], t_split = e^{j0 step} <= min(1, 1/z_max), which absorbs the
t^{alpha-1} endpoint singularity, then geometric Gauss-Kronrod (GK15)
panels [e^{j step}, e^{(j+1) step}] in t out to e^{-50} below the
integrand's peak.  All terms are positive, so there is no cancellation and
the point-to-point noise stays at rounding level, which downstream residual
checks rely on.  The sum is taken in log space (log-sum-exp over the
nodes).  Differentiating under the integral gives
U' = -1/Gamma(alpha) int t e^{-z t} ..., so U'/U = -<t>, the mean of t
under U's own Laplace weight, and likewise U''/U = <t^2>: one pass of the
rule gives ln U, U'/U and U''/U (_tricomi_u_raw).  A rule depends on
(alpha, gamma) only, and a caller may keep it between passes
(_LaplaceRule, Window).

Inner range.  With t = t_split x and f = e^{-z t} (1 + t)^{gamma-alpha-1},
int_0^1 x^{alpha-1} f dx = 1/alpha + int_0^1 x^alpha (f - 1)/x dx, as
f = 1 at x = 0.  The 16-node Gauss rule for the weight x^alpha (nodes x_i,
weights w_i; Golub & Welsch, Math. Comp. 23, 1969, from the Jacobi matrix
of P^(0, alpha) on [-1, 1]; _jacobi_unit, which closed_form's annuity
shares) makes that sum (w_i/x_i) f(x_i) + C f(0),
C = 1/alpha - sum w_i/x_i > 0, its error on 1/x.  The node at x = 0 adds
nothing to <t> and <t^2>, and is left out where C rounds to <= 0 (from
alpha ~ 12 up, below 1e-16 of 1/alpha).  The rule integrates
x^{alpha-1+j}, j <= 31, within 1e-14 relative on 200 alpha from 1e-14 to
2000, with no seam in alpha.  Against mpmath at 40 digits on 12 alpha in
[8.3e-4, 21], gamma in {0.0043, 0.05, 0.5, 3, 24, 41, 180} and 12 z in
[1e-3, 500], on one array and at single points, ln U is within 2.3e-13
absolute and U'/U and U''/U within 9.1e-15 relative; at alpha = 1e-6,
1e-10 and 1e-14 (gamma in {0.0043, 0.5, 3, 41}, 8 z) within 5.7e-14 and
1.1e-14.

Supported box.  On 2000 log-uniform draws over k in [0.01, 5], theta in
[0.003, 0.3], sigma in [0.005, 0.5] and c in [0.005, 0.2] (gamma from 6e-4
to 75,000) every solve either meets its diagnostic bounds or raises
NoBracketError.  On 51 of them M(z*) exceeds float range; ln(e^{-z} M) and
ln U do not.

M is scipy's hyp1f1, verified to ~1e-14 on the contract box including
near-integer gamma.  _kummer_m_scaled returns ln(e^{-z} M): ln hyp1f1 - z
while hyp1f1 is in range, the large-z series (DLMF 13.7.2) summed in log
form beyond it; _log_msc_and_ratio adds M'/M from M(alpha+1, gamma+1, z)
for c2 and cirmort verify's Wronskian check.  U is never routed through
scipy's hyperu: that implementation loses all accuracy for gamma within
~1e-15 of an integer, a regime gamma = 2*k*theta/sigma^2 hits for round
model inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.linalg.lapack import dstev

from .errors import ConvergenceError, DomainError

__all__ = ["log_wronskian"]


def _check_z(z_min: float, z_max: float, name: str) -> None:
    """Raises DomainError unless the least and largest z, z_min and z_max,
    are finite and z_min > 0; a NaN anywhere makes both NaN."""
    if not (math.isfinite(z_min) and math.isfinite(z_max)):
        raise DomainError("z must be finite")
    if z_min <= 0.0:
        raise DomainError(f"{name} requires z > 0")


_JACOBI_NODES = 16      # Gauss-Jacobi nodes of U's rule on (0, t_split]
_K = np.arange(float(_JACOBI_NODES))    # the Jacobi matrix's row index
# Kronrod-15 abscissae on [-1, 1] (symmetric; nonnegative half listed) and the
# matching Kronrod weights, QUADPACK dqk15's 33-digit values: with them the
# rule integrates x^j, j <= 22, within 3e-27 (mpmath at 40 digits).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
# GK15 on [0, 1], of which each panel of U's rule and of the annuity's
# (closed_form) is an affine copy
_UNIT_NODES = 0.5 + 0.5 * np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_UNIT_WEIGHTS = 0.5 * np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])


def _jacobi_unit(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x in [0, 1] and log weights of the _JACOBI_NODES-point rule for
    int_0^1 x^{alpha-1} f(x) dx of the module docstring's Inner range: one
    dstev call on the Jacobi matrix of P^(0, alpha) gives the eigenvalues y,
    x = (1 + y)/2, and the weights from the eigenvectors' first components."""
    s = 2.0 * _K + alpha
    y, vectors, _ = dstev(alpha * alpha / (s * (s + 2.0)),
                          2.0 * _K[1:] * (_K[1:] + alpha)
                          / (s[1:] * np.sqrt(s[1:] * s[1:] - 1.0)))
    x, w = np.zeros(_JACOBI_NODES + 1), np.empty(_JACOBI_NODES + 1)
    np.multiply(0.5, 1.0 + y, out=x[1:])
    np.divide(vectors[0] ** 2, (alpha + 1.0) * x[1:], out=w[1:])
    w[0] = 1.0 / alpha - w[1:].sum()     # C, at x = 0
    keep = 0 if w[0] > 0.0 else 1
    return x[keep:], np.log(w[keep:])


class _LaplaceRule:
    """Nodes for int_0^inf t^{alpha-1} f(t) dt, f = e^{-z t}
    (1 + t)^{gamma-alpha-1}, at one (alpha, gamma) and any z > 0; f decays
    like (z t)^g e^{-z t}, g = max(gamma - 2, alpha - 1).  Each node keeps
    the z-free part e of its exponent, so a pass (moments) adds -z t.

    Outer panels: GK15 in t on [e^{j step}, e^{(j+1) step}],
    step = min(ln 2, 1.3/sqrt(max(g, 1))) a fraction of the width
    1/sqrt(g) of the peak of y^g e^{-y} in ln y, for j0 <= j < j1 with
    j0 = floor(ln min(1, 1/z_max) / step) and j1 = ceil(ln t_max / step),
    t_max = (60 + 3g)/z_min over the z of a pass, where
    y - g ln y >= 50 + g - g ln g puts the integrand e^{-50} below its
    peak.  Each is the unit panel on [1, e^step] scaled by e^{j step}, with
    e = ln w + (alpha-1) ln t, which scaling raises by alpha j step.

    Inner range (0, t_split], t_split = e^{j0 step} <= 1/z_max, in
    x = t/t_split: the nodes of _jacobi_unit(alpha), or of inner if the
    owner passes them; e = ln weight, which scaling raises by alpha j0 step.
    A pass whose span (j0, j1) differs from the last one's scales both unit
    sets to it, and every node adds (gamma-alpha-1) ln(1 + t) to its e.

    Window: the owner may build the rule with window = (z_lo, z_hi).  A
    pass whose z all lie in it takes the span of (z_lo, z_hi) in place of
    its own, which covers its own, so a run of passes there builds the nodes
    once and agrees with a single-use rule to rounding; any other pass keeps
    its own span.  Without a window every pass takes its own span.  A pass
    takes an array of z or one 0-d z, for which it returns scalars."""

    def __init__(self, alpha: float, gamma: float,
                 window: tuple[float, float] | None = None,
                 inner: tuple[np.ndarray, np.ndarray] | None = None):
        self.alpha, self.gamma, self.window = alpha, gamma, window
        g = max(gamma - 2.0, alpha - 1.0)
        self.reach = 60.0 + 3.0 * max(g, 0.0)
        self.step = min(math.log(2.0), 1.3 / math.sqrt(max(g, 1.0)))
        self.t_unit, self.e_unit = (_jacobi_unit(alpha) if inner is None
                                    else inner)
        width = math.expm1(self.step)
        self.t_panel = 1.0 + width * _UNIT_NODES
        self.e_panel = (np.log(width * _UNIT_WEIGHTS)
                        + (alpha - 1.0) * np.log(self.t_panel))
        # the last pass's (j0, j1), the rows (e, 1, t, t^2) of its nodes and
        # the last three as columns: Newton's iterates near a root ask for
        # the same span again
        self.span, self.nodes = None, None

    def _nodes(self, j0: int, j1: int) -> np.ndarray:
        """Rows (e, 1, t, t^2) of the nodes of span (j0, j1): summed with
        e^{e - z t}, the last three give U and its first two moments."""
        step, alpha = self.step, self.alpha
        shift = step * np.arange(j0, j1)[:, None]
        t = np.concatenate([math.exp(j0 * step) * self.t_unit,
                            (np.exp(shift) * self.t_panel).ravel()])
        rows = np.empty((4, t.size))
        rows[0] = np.concatenate([self.e_unit + alpha * j0 * step,
                                  (self.e_panel + alpha * shift).ravel()])
        rows[0] += (self.gamma - alpha - 1.0) * np.log1p(t)
        rows[1] = 1.0
        rows[2] = t
        np.multiply(t, t, out=rows[3])
        return rows

    def moments(self, zs: np.ndarray, z_min: float, z_max: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ln U, U'/U, U''/U) at every z of zs, an array or one 0-d z, whose
        least and largest are z_min and z_max: ln U by log-sum-exp over the
        nodes, U'/U = -<t> and U''/U = <t^2>, the moments of t under the
        same weights."""
        step, window = self.step, self.window
        if window is not None and window[0] <= z_min and z_max <= window[1]:
            z_min, z_max = window
        span = (math.floor(-max(math.log(z_max), 0.0) / step),
                math.ceil((math.log(self.reach) - math.log(z_min)) / step))
        if span != self.span:
            self.span, self.nodes = span, self._nodes(*span)
            self.weights = np.ascontiguousarray(self.nodes[1:].T)
        nodes = self.nodes
        e = np.multiply.outer(zs, nodes[2])
        np.subtract(nodes[0], e, out=e)
        peak = e.max(axis=-1, keepdims=True)
        e -= peak
        np.exp(e, out=e)
        total, mean_t, mean_tt = (e @ self.weights).T
        return (peak[..., 0] + np.log(total) - math.lgamma(self.alpha),
                -mean_t / total, mean_tt / total)


def _tricomi_u_raw(alpha: float, gamma: float, zs: np.ndarray,
                   rule: _LaplaceRule | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln U(alpha, gamma, z), U'/U, U''/U) at every z of zs from one pass of
    rule, the _LaplaceRule(alpha, gamma) that a caller keeps to pass again,
    or a single-use one if rule is None."""
    if alpha <= 0.0:
        raise DomainError(f"U requires alpha > 0, got {alpha!r}")
    if zs.size == 0:
        return np.empty_like(zs), np.empty_like(zs), np.empty_like(zs)
    # a solved set makes about 8.5 passes on one 0-d z; there float(zs)
    # takes 0.24 us, against 4.2 us for zs.min() and zs.max()
    z_min, z_max = ((float(zs.min()), float(zs.max())) if zs.ndim
                    else (float(zs),) * 2)
    _check_z(z_min, z_max, "U")
    if rule is None:
        rule = _LaplaceRule(alpha, gamma)
    return rule.moments(zs, z_min, z_max)


def log_wronskian(alpha: float, gamma: float, zs: np.ndarray) -> np.ndarray:
    """ln |W| at every z of zs, for the closed-form Wronskian
    W = M U' - M' U = -(Gamma(gamma)/Gamma(alpha)) z^{-gamma} e^{z}."""
    if alpha <= 0.0 or gamma <= 0.0:
        raise DomainError("log_wronskian requires alpha > 0 and gamma > 0")
    if zs.size:
        _check_z(float(zs.min()), float(zs.max()), "log_wronskian")
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


def _log_msc_and_ratio(alpha: float, gamma: float,
                       zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln(e^{-z} M), M'/M) at every z >= 0 of zs, with
    M'/M = (alpha/gamma) M(alpha+1, gamma+1, z) / M(alpha, gamma, z)."""
    log_msc, log_msc1 = np.array(
        [[_kummer_m_scaled(alpha, gamma, z),
          _kummer_m_scaled(alpha + 1.0, gamma + 1.0, z)] for z in zs]).T
    return log_msc, (alpha / gamma) * np.exp(log_msc1 - log_msc)
