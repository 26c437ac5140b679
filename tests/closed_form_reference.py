"""Reference forms of the closed-form solution that the solver itself does
not use: the source term, the variation-of-parameters kernel, the particular
solution at any z_ref, and two forms of the smooth-pasting residual.  The
tests check them against each other and against the solver's root."""

import math

import numpy as np

from cirmort.closed_form import _Workspace
from cirmort.errors import DomainError, SingularityError
from cirmort.specfun import _tricomi_u_raw


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


def particular_solution(consts, contract, z, z_ref):
    """(u_p(z), u_p'(z)) by the split variation-of-parameters form.

    The instantaneous kernel terms cancel in u_p', so both components are
    plain basis-times-integral combinations.  Shifting z_ref moves u_p by a
    multiple of U, absorbed downstream into c2.
    """
    if not (z >= z_ref > 0):
        raise DomainError(f"need z >= z_ref > 0, got z={z!r}, z_ref={z_ref!r}")
    ws = _Workspace(consts, contract)
    zs = np.array([z])
    iu = float(ws.iu_scaled(zs)[0])
    im = float(ws.im_scaled(z_ref, 0.0, zs)[0])
    up = float(ws.m_scaled(zs)[0]) * iu + float(ws.u_fn(zs)[0]) * im
    upp = (float(ws.m_prime_scaled(zs)[0]) * iu
           + float(ws.u_prime_fn(zs)[0]) * im)
    scale = math.exp(consts.a_exp * z)
    return up * scale, upp * scale


def boundary_residual(consts, contract, z_candidate):
    """Smooth-pasting residual F(z) = c2(z) U'(z) + u_p'(z) - a e^{a z}
    with z_ref = z_candidate; F(z*) = 0."""
    if not z_candidate > 0:
        raise DomainError("boundary_residual requires z_candidate > 0")
    ws = _Workspace(consts, contract)
    return ws.residual_scaled(z_candidate) * math.exp(
        consts.a_exp * z_candidate)


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
    zs = np.array([float(z_candidate)])
    u = float(_tricomi_u_raw(consts.alpha, consts.gamma, zs)[0])
    u_shift = float(_tricomi_u_raw(consts.alpha + 1.0, consts.gamma + 1.0,
                                   zs)[0])
    up, upp = particular_solution(consts, contract, z_candidate, z_candidate)
    e_az = math.exp(consts.a_exp * z_candidate)
    denom = upp - consts.a_exp * e_az
    if denom == 0.0 or u_shift == 0.0:
        raise SingularityError("ratio form degenerate at this z")
    return u / u_shift - consts.alpha * (e_az - up) / denom
