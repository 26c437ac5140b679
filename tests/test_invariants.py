"""Relations the solved boundary must satisfy across the README box, checked
without a second solver.

- Time scaling: measuring time in units of 1/lam maps (k, theta, sigma, c)
  to (lam k, lam theta, lam sigma, lam c) and the rate x to lam x, so
  x* scales by lam and V(lam x) is unchanged.
- Comparison in c: V = inf over stopping times of E[int c D dt + D_tau]
  rises with c, so x* does not fall as c rises, and a boundary at c implies
  one at any c' > c.
- Comparison in theta: a larger theta gives pathwise larger rates
  (Karatzas & Shreve, Brownian Motion and Stochastic Calculus, Prop.
  5.2.18), so V falls as theta rises and x* does not rise; a boundary at
  theta' > theta implies one at theta.

Tolerances are ten times the documented root tolerance of 1e-10.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cirmort.closed_form import _Workspace, solve_boundary, value
from cirmort.errors import NoBracketError
from cirmort.model import CirParams, ContractParams

TOL = 1e-9
# the README box: k, theta, sigma, c, each drawn log-uniformly
BOX = ((0.01, 5.0), (0.003, 0.3), (0.005, 0.5), (0.005, 0.2))

box_sets = st.tuples(*(st.floats(np.log(lo), np.log(hi))
                       for lo, hi in BOX)).map(
    lambda logs: tuple(float(v) for v in np.exp(logs)))


def _solve(k, theta, sigma, c):
    """The solution at (k, theta, sigma, c), or None without a boundary;
    sets within 1e-6 of A(0) = 1, where the root falls fastest, are
    assumed away."""
    cir, con = CirParams(k=k, theta=theta, sigma=sigma), ContractParams(c=c,
                                                                        m=c)
    ann_zero = float(_Workspace(cir, con).annuity(np.zeros(1))[0][0])
    assume(abs(ann_zero - 1.0) > 1e-6)
    try:
        return solve_boundary(cir, con)
    except NoBracketError:
        return None


@settings(max_examples=200)
@given(box_sets, st.sampled_from([0.1, 7.0]))
def test_time_scaling_scales_the_boundary(pset, lam):
    sol = _solve(*pset)
    scaled = _solve(*(lam * v for v in pset))
    assert (sol is None) == (scaled is None)
    if sol is None:
        return
    assert abs(scaled.x_star - lam * sol.x_star) <= TOL * lam * sol.x_star
    xs = sol.x_star * np.array([1.5, 3.0, 10.0])
    assert np.all(np.abs(value(scaled, lam * xs) - value(sol, xs)) <= TOL)


@settings(max_examples=200)
@given(box_sets)
def test_boundary_does_not_fall_as_the_coupon_rises(pset):
    k, theta, sigma, c = pset
    sol = _solve(k, theta, sigma, c)
    if sol is None:
        return
    higher = _solve(k, theta, sigma, 1.01 * c)
    assert higher is not None
    assert higher.x_star >= sol.x_star * (1.0 - TOL)


@settings(max_examples=200)
@given(box_sets)
def test_boundary_does_not_rise_as_theta_rises(pset):
    k, theta, sigma, c = pset
    higher = _solve(k, 1.01 * theta, sigma, c)
    if higher is None:
        return
    sol = _solve(k, theta, sigma, c)
    assert sol is not None
    assert higher.x_star <= sol.x_star * (1.0 + TOL)
