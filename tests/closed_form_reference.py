"""Reference forms of the closed-form solution that the solver itself does
not use, in mpmath at 20 digits unless stated: the source term, the
variation-of-parameters kernel, the paper's particular solution
u_p = M I_U + U I_M at any z_ref, two forms of its smooth-pasting residual,
the annuity-form residual R(x), the annuity as an integral in the bond
variable, the annuity at x = 0 by the incomplete beta function, and, in
floats, the zero-coupon bond price whose integral in t is the annuity.  The
tests check them against each other, against the solver and against the
Monte Carlo oracle."""

import math

import mpmath as mp
import numpy as np

from cirmort.errors import DomainError
from cirmort.model import derive_constants

DPS = 20


def source_term(consts, contract, z):
    """Transformed ODE source g(z) = -(c/s) e^{a_exp z}."""
    zs = np.asarray(z, dtype=float)
    if np.any(zs < 0):
        raise DomainError("source_term requires z >= 0")
    return -(contract.c / consts.s) * np.exp(consts.a_exp * zs)


def kernel_weight(consts, contract, xi):
    """Variation-of-parameters kernel w(xi) = (g(xi)/xi) / W(M,U)(xi)
    = kappa xi^{gamma-1} e^{-(1-a_exp) xi}, assembled in log space."""
    xs = np.asarray(xi, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("kernel_weight requires xi > 0")
    kappa_log = (math.lgamma(consts.alpha) - math.lgamma(consts.gamma)
                 + math.log(contract.c / consts.s))
    return np.exp(kappa_log + (consts.gamma - 1.0) * np.log(xs)
                  - (1.0 - consts.a_exp) * xs)


def _mp_constants(consts, contract):
    """alpha, gamma, a and the kernel factor kappa as mpf."""
    al, g, a = (mp.mpf(consts.alpha), mp.mpf(consts.gamma),
                mp.mpf(consts.a_exp))
    kappa = mp.gamma(al) / mp.gamma(g) * mp.mpf(contract.c) / consts.s
    return al, g, a, kappa


def _particular_mp(consts, contract, z, z_ref):
    """(u_p, u_p', e^{a z}, U, U') at z as mpf: the split form
    u_p = M I_U + U I_M with I_U = int_z^inf U w, I_M = int_zref^z M w;
    the instantaneous kernel terms cancel in u_p'."""
    al, g, a, kappa = _mp_constants(consts, contract)
    z, z_ref = mp.mpf(z), mp.mpf(z_ref)

    def w(xi):
        return kappa * xi ** (g - 1) * mp.exp(-(1 - a) * xi)

    i_u = mp.quad(lambda xi: mp.hyperu(al, g, xi) * w(xi),
                  [z + s for s in (0, 1, 10, 60)] + [mp.inf])
    i_m = (mp.quad(lambda xi: mp.hyp1f1(al, g, xi) * w(xi), [z_ref, z])
           if z > z_ref else mp.mpf(0))
    m, m_p = mp.hyp1f1(al, g, z), al / g * mp.hyp1f1(al + 1, g + 1, z)
    u, u_p = mp.hyperu(al, g, z), -al * mp.hyperu(al + 1, g + 1, z)
    return m * i_u + u * i_m, m_p * i_u + u_p * i_m, mp.exp(a * z), u, u_p


def particular_solution(consts, contract, z, z_ref):
    """(u_p(z), u_p'(z)) by the split variation-of-parameters form.  Shifting
    z_ref moves u_p by a multiple of U, absorbed downstream into c2."""
    if not (z >= z_ref > 0):
        raise DomainError(f"need z >= z_ref > 0, got z={z!r}, z_ref={z_ref!r}")
    with mp.workdps(DPS):
        up, upp = _particular_mp(consts, contract, z, z_ref)[:2]
        return float(up), float(upp)


def boundary_residual(consts, contract, z_candidate):
    """Smooth-pasting residual F(z) = c2(z) U'(z) + u_p'(z) - a e^{a z}
    with z_ref = z_candidate and c2(z) = (e^{a z} - u_p(z)) / U(z);
    F(z*) = 0."""
    if not z_candidate > 0:
        raise DomainError("boundary_residual requires z_candidate > 0")
    with mp.workdps(DPS):
        up, upp, e_az, u, u_p = _particular_mp(consts, contract, z_candidate,
                                               z_candidate)
        return float((e_az - up) / u * u_p + upp - consts.a_exp * e_az)


def boundary_residual_ratio_form(consts, contract, z_candidate):
    """Cross-check form of the boundary equation written as a ratio of U's:

        U(alpha, gamma, z) / U(alpha+1, gamma+1, z)
            = alpha (e^{a z} - u_p(z)) / (u_p'(z) - a e^{a z})

    (single Gamma(alpha)/Gamma(gamma) power in the kernel, not the squared
    factor).  Returns lhs - rhs; shares its root with boundary_residual but
    follows a different arithmetic route.
    """
    if not z_candidate > 0:
        raise DomainError("requires z_candidate > 0")
    with mp.workdps(DPS):
        up, upp, e_az, u, u_p = _particular_mp(consts, contract, z_candidate,
                                               z_candidate)
        denom = upp - consts.a_exp * e_az
        if denom == 0:
            raise ZeroDivisionError("ratio form degenerate at this z")
        al = mp.mpf(consts.alpha)
        return float(u / (-u_p / al) - al * (e_az - up) / denom)


def annuity_mp(cir, contract, x, dps=DPS):
    """(A, A', A'') = (c int_0^inf P(x, t) dt, -c int_0^inf B P dt,
    c int_0^inf B^2 P dt) by mp.quad of the Cox-Ingersoll-Ross bond price
    P = A_P(t) e^{-B(t) x}, as mpf."""
    with mp.workdps(dps):
        k, theta, sigma = map(mp.mpf, (cir.k, cir.theta, cir.sigma))
        c, x = mp.mpf(contract.c), mp.mpf(x)
        h = mp.sqrt(k * k + 2 * sigma ** 2)
        g = 2 * k * theta / sigma ** 2

        def terms(t):
            e = mp.exp(-h * t)
            den = (h + k) * (1 - e) + 2 * h * e
            b = 2 * (1 - e) / den
            return b, mp.exp(g * mp.log(2 * h * mp.exp((k - h) * t / 2) / den)
                             - b * x)

        def b_squared_p(b, price):
            return b * b * price

        # the long rate r_inf sets the decay; split at powers of ten below
        r_inf = 2 * k * theta / (h + k)
        pts = ([0] + [mp.mpf(10) ** j for j in range(-8, 8)
                      if mp.mpf(10) ** j < 200 / r_inf]
               + [200 / r_inf, mp.inf])
        ann = c * mp.quad(lambda t: terms(t)[1], pts)
        ann_x = -c * mp.quad(lambda t: mp.fprod(terms(t)), pts)
        ann_xx = c * mp.quad(lambda t: b_squared_p(*terms(t)), pts)
        return +ann, +ann_x, +ann_xx


def annuity_w_mp(cir, contract, x, dps=30):
    """(A, A', A'') as mpf from the annuity in the bond variable
    w = a - B(t)/p, a = a_exp, z = p x (Cox, Ingersoll & Ross 1985):

        A = (c/s) a^{-alpha} (1-a)^{alpha-gamma}
            int_0^a w^{alpha-1} (1-w)^{gamma-alpha-1} e^{-z (a-w)} dw,

    A' and A'' with the factors -p (a - w) and p^2 (a - w)^2 under the
    integral, by mp.quad at dps + alpha/ln 10 digits (the margin that the
    a-series of this integral needs: it cancels by about e^alpha).  mp.quad
    stops on an absolute error, so each piece is put in O(1) form, in
    v = (a - w)/a and zeta = z a: w <= a/2 as u = (2w/a)^alpha, which
    absorbs w^{alpha-1}, and w > a/2 as u = q v, q = max(1, zeta), split
    geometrically toward v = 0."""
    with mp.workdps(dps + int(derive_constants(cir).alpha / math.log(10)) + 1):
        k, theta, sigma = map(mp.mpf, (cir.k, cir.theta, cir.sigma))
        s = mp.sqrt(k * k + 2 * sigma ** 2)
        a, g = sigma ** 2 / (s * (s + k)), 2 * k * theta / sigma ** 2
        al, p = g * a, 2 * s / sigma ** 2
        zeta = p * mp.mpf(x) * a
        q = max(1, zeta)

        def f(v):
            return (1 + a * v / (1 - a)) ** (g - al - 1) * mp.exp(-zeta * v)

        lows = [0] + [mp.mpf(4) ** (-i * al) for i in range(11, -1, -1)]
        highs = [q / 2]
        while highs[-1] > 1e-3:
            highs.append(highs[-1] / 4)
        highs.append(0)
        out = []
        for j in range(3):
            low = mp.quad(lambda u: f(1 - u ** (1 / al) / 2)
                          * (1 - u ** (1 / al) / 2) ** j, lows)
            high = mp.quad(lambda u: (1 - u / q) ** (al - 1) * f(u / q)
                           * u ** j, highs[::-1])
            out.append(mp.mpf(contract.c) / (s * (1 - a)) * (-p * a) ** j
                       * (2 ** -al / al * low + q ** (-1 - j) * high))
        return tuple(out)


def annuity_residual_mp(cir, contract, x):
    """The annuity-form boundary residual
    R(x) = (1 - A)(lam + p U'/U) + A' at 20 digits, with mp.hyperu for U;
    R(x*) = 0."""
    with mp.workdps(DPS):
        k, sigma = mp.mpf(cir.k), mp.mpf(cir.sigma)
        s = mp.sqrt(k * k + 2 * sigma ** 2)
        lam, p = (k - s) / sigma ** 2, 2 * s / sigma ** 2
        g = 2 * k * mp.mpf(cir.theta) / sigma ** 2
        al = g / 2 * (1 - k / s)
        z = p * mp.mpf(x)
        ann, ann_x, _ = annuity_mp(cir, contract, x)
        ratio = -al * mp.hyperu(al + 1, g + 1, z) / mp.hyperu(al, g, z)
        return float((1 - ann) * (lam + p * ratio) + ann_x)


def annuity_at_zero_betainc(cir, contract):
    """A(0) = (c/s) a^{-alpha} (1-a)^{alpha-gamma} B(a; alpha, gamma-alpha)
    at 20 digits from (k, theta, sigma, c) alone, with the incomplete beta
    function B(a; ...) = mp.betainc(alpha, gamma - alpha, 0, a): the CIR
    bond price written in b = B(t), integrated over maturity.  A boundary
    exists exactly where this exceeds 1."""
    with mp.workdps(DPS):
        k, theta, sigma = map(mp.mpf, (cir.k, cir.theta, cir.sigma))
        s = mp.sqrt(k * k + 2 * sigma ** 2)
        a = sigma ** 2 / (s * (s + k))
        g = 2 * k * theta / sigma ** 2
        al = 2 * k * theta / (s * (s + k))
        return float(mp.mpf(contract.c) / s * a ** -al * (1 - a) ** (al - g)
                     * mp.betainc(al, g - al, 0, a))


def bond_price_terms(cir, t):
    """(ln A(t), B(t)) at each maturity t >= 0 of an array, for the zero-coupon
    bond price P(x, t) = E[exp(-int_0^t x)] = A(t) e^{-B(t) x} of Cox,
    Ingersoll & Ross (Econometrica 53, 1985), written with e^{-h t},
    h = sqrt(k^2 + 2 sigma^2), so that nothing overflows at any t."""
    t = np.asarray(t, dtype=float)
    k = cir.k
    h = math.sqrt(k * k + 2.0 * cir.sigma ** 2)
    k_minus_h = -2.0 * cir.sigma ** 2 / (h + k)
    em = np.expm1(-h * t)                               # e^{-ht} - 1
    den = 2.0 * h + k_minus_h * -em
    log_a = (2.0 * k * cir.theta / cir.sigma ** 2) * (
        0.5 * k_minus_h * t - np.log1p(k_minus_h * -em / (2.0 * h)))
    return log_a, -2.0 * em / den
