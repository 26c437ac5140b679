"""Model and contract parameters, the unit-balance rule m = c that every
solver and oracle applies (require_unit_balance), and derived
transformation constants.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "CirParams",
    "ContractParams",
    "DerivedConstants",
    "FellerWarning",
    "derive_constants",
    "require_unit_balance",
]

RATE_FLOOR = 1e-100    # lowest x searched; the box's least x*/theta is 4.2e-33


def _positive_fields(params, names) -> None:
    """Stores each named field of a frozen dataclass as a float; raises
    ValidationError naming it unless it is a positive finite real, not bool."""
    for name in names:
        value = getattr(params, name)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value) and value > 0):
            raise ValidationError(name, f"must be a positive finite "
                                        f"number, got {value!r}")
        object.__setattr__(params, name, float(value))


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
        _positive_fields(self, ("k", "theta", "sigma"))
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
    maturity: the steady state is the infinite-horizon problem.  The balance
    tends to m/c, so every solver and oracle takes unit balance m = c only
    (require_unit_balance); values for another m are the m = c values times
    m/c, which the CLI applies."""

    c: float
    m: float

    def __post_init__(self):
        _positive_fields(self, ("c", "m"))


def require_unit_balance(contract: ContractParams) -> None:
    """ValidationError("m") unless m = c to rounding (ContractParams)."""
    if abs(contract.m - contract.c) > 1e-15 * max(contract.m, contract.c):
        raise ValidationError(
            "m", "the steady-state solver requires the m = c normalization; "
                 "rescale reported values by m/c instead")


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

