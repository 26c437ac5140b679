"""Model and contract parameters, derived transformation constants, the
Cox-Ingersoll-Ross bond price, and the loan balance function.

Time convention: the public API uses time-to-expiry tau everywhere, so the
balance ODE reads B'(tau) = m - c*B with B(0) = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "CirParams",
    "ContractParams",
    "DerivedConstants",
    "FellerWarning",
    "derive_constants",
    "bond_price_terms",
    "balance",
]


class FellerWarning(UserWarning):
    """2*k*theta < sigma^2: the rate process can touch zero.

    Advisory only; the steady-state problem lives on x >= x_star > 0 and is
    solvable regardless.
    """


@dataclass(frozen=True)
class CirParams:
    """CIR short-rate coefficients: dx = k (theta - x) dt + sigma sqrt(x) dW."""

    k: float
    theta: float
    sigma: float

    def __post_init__(self):
        for name in ("k", "theta", "sigma"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise ValidationError(name, f"must be a positive finite "
                                            f"number, got {value!r}")
        if not self.feller_satisfied:
            warnings.warn(
                f"Feller condition violated: 2*k*theta = "
                f"{2 * self.k * self.theta:g} < sigma^2 = {self.sigma ** 2:g}",
                FellerWarning, stacklevel=2)

    @property
    def feller_satisfied(self) -> bool:
        return 2.0 * self.k * self.theta >= self.sigma ** 2


@dataclass(frozen=True)
class ContractParams:
    """Contract rate c and continuous payment rate m of a loan with no
    maturity: the steady state is the infinite-horizon problem.

    The steady-state solver additionally requires m = c (values are reported
    for general m by rescaling at the CLI layer).
    """

    c: float
    m: float

    def __post_init__(self):
        for name in ("c", "m"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise ValidationError(name, f"must be a positive finite "
                                            f"number, got {value!r}")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of the substitution V(x) = e^{lam x} u(z), z = p x."""

    s: float        # sqrt(k^2 + 2 sigma^2)
    lam: float      # (k - s) / sigma^2, negative
    p: float        # 2 s / sigma^2
    alpha: float    # (k theta / sigma^2)(1 - k/s)
    gamma: float    # 2 k theta / sigma^2
    a_exp: float    # 1/2 - k/(2s) = -lam/p


def derive_constants(cir: CirParams) -> DerivedConstants:
    k, theta, sigma = cir.k, cir.theta, cir.sigma
    sigma2 = sigma * sigma
    s = math.sqrt(k * k + 2.0 * sigma2)
    # s - k = 2 sigma^2 / (s + k) without the cancellation of s - k when
    # sigma << k
    consts = DerivedConstants(
        s=s,
        lam=-2.0 / (s + k),
        p=2.0 * s / sigma2,
        alpha=2.0 * k * theta / (s * (s + k)),
        gamma=2.0 * k * theta / sigma2,
        a_exp=sigma2 / (s * (s + k)),
    )
    # s > k makes these automatic; guard anyway so downstream can rely on them
    assert consts.lam < 0 and consts.p > 0
    assert 0.0 < consts.a_exp < 0.5
    assert consts.alpha > 0 and consts.gamma > 0
    return consts


def bond_price_terms(cir: CirParams,
                     t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def balance(contract: ContractParams, tau: float) -> float:
    """Outstanding balance at time-to-expiry tau: (m/c)(1 - e^{-c tau})."""
    if not tau >= 0:
        raise ValidationError("tau", f"must be nonnegative, got {tau!r}")
    return (contract.m / contract.c) * -math.expm1(-contract.c * tau)
