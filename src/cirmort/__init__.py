"""Steady-state mortgage prepayment boundary solver under a CIR short rate.

The package computes the optimal prepayment threshold x* and the contract
value function V(x) from the closed-form infinite-horizon solution, and
validates the result against shooting, finite-difference, and Monte Carlo
oracles.
"""

from .closed_form import (SteadyStateSolution, ValueCurve, solve_boundary,
                          value, value_curve, value_derivative)
from .model import (CirParams, ContractParams, DerivedConstants,
                    derive_constants)

__all__ = [
    "CirParams",
    "ContractParams",
    "DerivedConstants",
    "SteadyStateSolution",
    "ValueCurve",
    "derive_constants",
    "solve_boundary",
    "value",
    "value_curve",
    "value_derivative",
]

__version__ = "0.1.0"
