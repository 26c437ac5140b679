"""Reference forms of the closed-form solution that the solver itself does
not use, in mpmath at 30 digits: the source term, the variation-of-parameters
kernel, the paper's particular solution u_p = M I_U + U I_M at any z_ref, two
forms of its smooth-pasting residual, and the annuity-form residual R(x).
The tests check them against each other and against the solver's root."""

import math

import mpmath as mp
import numpy as np

from cirmort.errors import DomainError, SingularityError

DPS = 30


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
            raise SingularityError("ratio form degenerate at this z")
        al = mp.mpf(consts.alpha)
        return float(u / (-u_p / al) - al * (e_az - up) / denom)


def annuity_mp(cir, contract, x, dps=DPS):
    """(A, A') = (c int_0^inf P(x, t) dt, -c int_0^inf B P dt) by mp.quad of
    the Cox-Ingersoll-Ross bond price P = A_P(t) e^{-B(t) x}, as mpf."""
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

        # the long rate r_inf sets the decay; split at powers of ten below
        r_inf = 2 * k * theta / (h + k)
        pts = ([0] + [mp.mpf(10) ** j for j in range(-8, 8)
                      if mp.mpf(10) ** j < 200 / r_inf]
               + [200 / r_inf, mp.inf])
        ann = c * mp.quad(lambda t: terms(t)[1], pts)
        ann_x = -c * mp.quad(lambda t: mp.fprod(terms(t)), pts)
        return +ann, +ann_x


def annuity_residual_mp(cir, contract, x):
    """The annuity-form boundary residual
    R(x) = (1 - A)(lam + p U'/U) + A' at 30 digits, with mp.hyperu for U;
    R(x*) = 0."""
    with mp.workdps(DPS):
        k, sigma = mp.mpf(cir.k), mp.mpf(cir.sigma)
        s = mp.sqrt(k * k + 2 * sigma ** 2)
        lam, p = (k - s) / sigma ** 2, 2 * s / sigma ** 2
        g = 2 * k * mp.mpf(cir.theta) / sigma ** 2
        al = g / 2 * (1 - k / s)
        z = p * mp.mpf(x)
        ann, ann_x = annuity_mp(cir, contract, x)
        ratio = -al * mp.hyperu(al + 1, g + 1, z) / mp.hyperu(al, g, z)
        return float((1 - ann) * (lam + p * ratio) + ann_x)
