"""Unit tests for the three independent oracles: shooting, the
finite-difference obstacle solver, and the Monte Carlo valuer."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cirmort import oracles
from cirmort.closed_form import solve_boundary, value
from cirmort.errors import ConvergenceError, NoBracketError, ValidationError
from cirmort.model import CirParams, ContractParams, bond_price_terms
from cirmort.oracles import (_howard, _operator_coeffs, _simulate_threshold,
                             fd_steady_state, mc_optimality_probe, mc_value,
                             shoot_solve)

PRIMARY_CIR = CirParams(k=0.25, theta=0.06, sigma=0.1)
CONTRACT = ContractParams(c=0.05, m=0.05)


@pytest.mark.parametrize("solve", [
    lambda con: shoot_solve(PRIMARY_CIR, con),
    lambda con: fd_steady_state(PRIMARY_CIR, con, 400),
    lambda con: mc_value(PRIMARY_CIR, con, 0.06, 0.009, paths=10, dt=0.01,
                         horizon=1.0),
    lambda con: mc_optimality_probe(PRIMARY_CIR, con, 0.06, 0.009, 0.001,
                                    paths=10, dt=0.01, horizon=1.0),
], ids=["shooting", "fd", "mc_value", "mc_probe"])
def test_every_oracle_rejects_m_other_than_c(solve):
    # each solves at unit balance m = c, like solve_boundary; another m
    # raises instead of returning the m = c numbers or a problem with
    # another obstacle
    with pytest.raises(ValidationError) as exc:
        solve(ContractParams(c=0.05, m=0.06))
    assert exc.value.field == "m"


# ---------------------------------------------------------------------------
# shooting

def test_shoot_solve_matches_closed_form(primary_solution):
    rep = shoot_solve(PRIMARY_CIR, CONTRACT, tol=1e-8)
    assert abs(rep.r_star - primary_solution.x_star) \
        <= 1e-6 * primary_solution.x_star
    assert rep.rhs_calls > 0


def test_shoot_solve_raises_no_bracket_without_boundary():
    # theta above c: q + phi keeps its sign over the whole sweep
    with pytest.raises(NoBracketError):
        shoot_solve(CirParams(k=0.1, theta=0.1, sigma=0.05),
                    ContractParams(c=0.03, m=0.03), tol=1e-8)


def test_shoot_solve_rejects_too_small_tolerance():
    with pytest.raises(ValidationError):
        shoot_solve(PRIMARY_CIR, CONTRACT, tol=1e-12)
    # rtol 1e-4 tol would fall below scipy's 1e-13 floor; an infinite tol
    # would stop the sweep far from the root
    for tol in (1e-10, math.inf):
        with pytest.raises(ValidationError):
            shoot_solve(PRIMARY_CIR, CONTRACT, tol=tol)


# ---------------------------------------------------------------------------
# finite differences

def test_fd_steady_state_validates_the_node_count():
    for n_nodes in (5, 100.0):
        with pytest.raises(ValidationError) as exc:
            fd_steady_state(PRIMARY_CIR, CONTRACT, n_nodes)
        assert exc.value.field == "n_nodes"


@pytest.fixture(scope="module")
def fd_coarse():
    return fd_steady_state(PRIMARY_CIR, CONTRACT, 500)


def test_fd_comparison_principle(fd_coarse):
    # 0 <= v <= the unit obstacle everywhere at steady state
    v = fd_coarse.v_steady
    assert float(v.min()) >= 0.0
    assert float(v.max()) <= 1.0 + 1e-9


def test_fd_boundary_location(primary_solution, fd_coarse):
    xs = fd_coarse.grid
    dx = xs[1] - xs[0]
    assert abs(fd_coarse.boundary - primary_solution.x_star) <= 2.0 * dx


def test_fd_stationary_solve_meets_discrete_complementarity(fd_coarse):
    # discrete complementarity min(1 - v, c - M v) = 0 with M = -A, on every
    # row but the Dirichlet one
    xs, v, c = fd_coarse.grid, fd_coarse.v_steady, CONTRACT.c
    dx = xs[1] - xs[0]
    lo, dg, up = _operator_coeffs(PRIMARY_CIR, xs[1:-1], dx)
    mv = np.empty(xs.size - 1)
    mv[0] = PRIMARY_CIR.k * PRIMARY_CIR.theta / dx * (v[0] - v[1])
    mv[1:] = -(lo * v[:-2] + dg * v[1:-1] + up * v[2:])
    slack = c - mv
    contact = xs[:-1] <= fd_coarse.boundary
    assert contact.any() and not contact.all()
    assert float(v.max()) <= 1.0
    assert v[:-1][contact] == pytest.approx(1.0, abs=1e-12)
    assert np.all(slack[contact] >= 0.0)
    assert np.all(v[:-1][~contact] < 1.0)
    assert float(np.max(np.abs(slack[~contact]))) <= 1e-12 * c


def test_fd_profile_converges_under_refinement(primary_solution):
    # interior error against the analytic profile shrinks by roughly the
    # expected first-order-in-h(boundary) factor under a 2x refinement
    probes = np.linspace(0.05, 2.0, 15)
    errs = []
    for n in (500, 1000):
        rep = fd_steady_state(PRIMARY_CIR, CONTRACT, n)
        vfd = np.interp(probes, rep.grid, rep.v_steady)
        vref = np.array([value(primary_solution, float(x)) for x in probes])
        errs.append(float(np.max(np.abs(vfd - vref))))
    # the factor fluctuates with how the free boundary lands on the grid
    # (often better than the asymptotic rate), so only require improvement
    assert errs[1] <= errs[0] / 1.5, errs
    assert errs[1] <= 5e-4, errs


def test_howard_raises_when_the_policy_cycles():
    # B = diag(-1, 1) is no M-matrix: row 0 flips for ever between free
    # (v = 1, above the obstacle 0) and contact (v = 0, PDE slack -1)
    band = np.array([[0.0, 0.0], [-1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConvergenceError):
        _howard(band, np.array([-1.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo

def test_mc_immediate_stop_below_boundary():
    rep = mc_value(PRIMARY_CIR, CONTRACT, x0=0.005, boundary=0.009,
                   paths=100, dt=0.01, horizon=10.0, seed=1)
    assert rep.value_estimate == 1.0
    assert rep.std_error == 0.0


def test_mc_seed_determinism():
    kw = dict(x0=0.06, boundary=0.009, paths=2000, dt=0.02, horizon=40.0)
    a = mc_value(PRIMARY_CIR, CONTRACT, seed=7, **kw)
    b = mc_value(PRIMARY_CIR, CONTRACT, seed=7, **kw)
    c = mc_value(PRIMARY_CIR, CONTRACT, seed=8, **kw)
    assert a.value_estimate == b.value_estimate
    assert a.std_error == b.std_error
    assert a.value_estimate != c.value_estimate


def test_mc_report_invariants():
    rep = mc_value(PRIMARY_CIR, CONTRACT, x0=0.06, boundary=0.009,
                   paths=2000, dt=0.02, horizon=40.0, seed=3)
    assert 0.0 <= rep.value_estimate <= 1.0 + 3.0 * rep.std_error
    assert rep.std_error > 0.0
    assert rep.paths == 2000
    assert rep.boundary_used == 0.009


def test_mc_validation_errors():
    with pytest.raises(ValidationError):
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=0, dt=0.01,
                 horizon=1.0)
    with pytest.raises(ValidationError):
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=10, dt=-0.01,
                 horizon=1.0)
    with pytest.raises(ValidationError):
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=10, dt=0.5,
                 horizon=0.1)
    # non-finite step or horizon: no step count can be formed
    for dt, horizon in ((0.01, math.inf), (math.inf, math.inf),
                        (math.nan, 1.0), (0.01, math.nan)):
        with pytest.raises(ValidationError):
            mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=10, dt=dt,
                     horizon=horizon)
    with pytest.raises(ValidationError):
        mc_optimality_probe(PRIMARY_CIR, CONTRACT, 0.06, boundary=0.009,
                            delta=0.01, paths=10, dt=0.01, horizon=1.0)
    # a start in the stopped region is validated like any other
    with pytest.raises(ValidationError):
        mc_value(PRIMARY_CIR, CONTRACT, x0=0.005, boundary=0.009, paths=0,
                 dt=-1.0, horizon=-5.0)
    # the generator takes no negative seed
    with pytest.raises(ValidationError) as exc:
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=10, dt=0.01,
                 horizon=1.0, seed=-1)
    assert exc.value.field == "seed"
    # nor a non-integer one
    with pytest.raises(ValidationError) as exc:
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=10, dt=0.01,
                 horizon=1.0, seed=1.5)
    assert exc.value.field == "seed"
    # a path started at +inf stays there and would price 0 with no error
    with pytest.raises(ValidationError) as exc:
        mc_value(PRIMARY_CIR, CONTRACT, math.inf, 0.009, paths=10, dt=0.01,
                 horizon=1.0)
    assert exc.value.field == "x0"
    # a NaN boundary stops no path; the probe names it, not delta
    with pytest.raises(ValidationError) as exc:
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, math.nan, paths=10, dt=0.01,
                 horizon=1.0)
    assert exc.value.field == "boundary"
    with pytest.raises(ValidationError) as exc:
        mc_optimality_probe(PRIMARY_CIR, CONTRACT, 0.06, boundary=math.nan,
                            delta=0.001, paths=10, dt=0.01, horizon=1.0)
    assert exc.value.field == "boundary"
    with pytest.raises(ValidationError) as exc:
        mc_value(PRIMARY_CIR, CONTRACT, 0.06, 0.009, paths=200.0, dt=0.01,
                 horizon=1.0)
    assert exc.value.field == "paths"


def test_mc_matches_closed_form_loosely(primary_solution):
    sol = primary_solution
    rep = mc_value(PRIMARY_CIR, CONTRACT, x0=0.06, boundary=sol.x_star,
                   paths=20000, dt=1.0 / 50.0, horizon=400.0, seed=11)
    want = value(sol, 0.06)
    # 4 sigma statistical band plus an O(dt) crossing-bias allowance
    assert abs(rep.value_estimate - want) \
        <= 4.0 * rep.std_error + 0.004, (rep.value_estimate, want)


def test_mc_probe_common_paths_reduce_difference_noise(primary_solution):
    b = primary_solution.x_star
    lo, mid, hi = mc_optimality_probe(
        PRIMARY_CIR, CONTRACT, x0=0.06, boundary=b, delta=0.3 * b,
        paths=5000, dt=0.02, horizon=200.0, seed=5)
    assert (lo.boundary_used, mid.boundary_used, hi.boundary_used) \
        == (b - 0.3 * b, b, b + 0.3 * b)
    # shared paths: policy differences are far tighter than the band an
    # independent pairing would give
    for other in (lo, hi):
        diff = abs(other.value_estimate - mid.value_estimate)
        assert diff <= 1.0 * (other.std_error + mid.std_error), diff


def test_mc_vanishing_coupon_limit():
    # with a negligible coupon and an unreachable boundary the value is
    # just the accumulated c dt, itself negligible
    con = ContractParams(c=1e-6, m=1e-6)
    rep = mc_value(PRIMARY_CIR, con, x0=0.06, boundary=1e-9,
                   paths=500, dt=0.05, horizon=5.0, seed=2)
    assert 0.0 <= rep.value_estimate <= 1e-5


@pytest.mark.parametrize("x0, horizon, dt, paths", [
    (0.06, 100.0, 1.0 / 50.0, 5000),
    (0.06, 400.0, 1.0 / 252.0, 2000),
    (0.02, 400.0, 1.0 / 252.0, 2000),
])
def test_mc_annuity_matches_cir_bond_prices(x0, horizon, dt, paths):
    # an unreachable boundary leaves the never-prepay annuity, whose mean is
    # c times the integral of the bond prices: accrual, roulette and horizon
    # banking against an exact reference
    rep = mc_value(PRIMARY_CIR, CONTRACT, x0=x0, boundary=1e-9, paths=paths,
                   dt=dt, horizon=horizon, seed=4)
    def bond_price(t):
        log_a, b = bond_price_terms(PRIMARY_CIR, t)
        return math.exp(log_a - b * x0)

    integral, err = quad(bond_price, 0.0, horizon, limit=200)
    assert err <= 1e-6 * integral
    want = CONTRACT.c * integral
    assert abs(rep.value_estimate - want) <= 3.0 * rep.std_error, \
        (rep.value_estimate, want, rep.std_error)


def test_mc_boundary_order_does_not_matter(primary_solution):
    b = primary_solution.x_star
    d = 0.3 * b
    kw = dict(x0=0.06, paths=1000, dt=0.02, horizon=200.0, seed=6)
    up = _simulate_threshold(PRIMARY_CIR, CONTRACT,
                             boundaries=[b - d, b, b + d], **kw)
    down = _simulate_threshold(PRIMARY_CIR, CONTRACT,
                               boundaries=[b + d, b, b - d], **kw)
    assert down == up[::-1]


def test_mc_retires_dead_paths():
    # a verify set whose paths mostly stop before the roulette start: the
    # bound is half of what simulating every path until then would cost
    cir = CirParams(k=0.30177, theta=0.031876, sigma=0.053703)
    con = ContractParams(c=0.039301, m=0.039301)
    x_star = solve_boundary(cir, con).x_star
    dt, paths = 1.0 / 252.0, 2000
    rep = mc_value(cir, con, x0=cir.theta, boundary=x_star, paths=paths,
                   dt=dt, horizon=400.0, seed=0)
    assert 0 < rep.path_steps < 0.5 * paths * round(30.0 / dt)
    stopped = mc_value(cir, con, x0=0.5 * x_star, boundary=x_star,
                       paths=paths, dt=dt, horizon=400.0, seed=0)
    assert stopped.path_steps == 0


# Reports pinned bit for bit: value_estimate and std_error by float.hex,
# path_steps exactly.  They were recorded with the segment loop on three
# spawned streams (normals, gammas, roulette uniforms), so a change to the
# draws, to the segment length, or to the order of the additions in the
# discount and accrual sums, shows here.
PRIMARY_X_STAR = 0.009217280309479105
DF_BELOW_ONE = (CirParams(k=0.22487, theta=0.030652, sigma=0.17724),
                ContractParams(c=0.036055, m=0.036055))     # df = 0.88
DF_BELOW_ONE_X_STAR = 0.0043751544317062845


def _verify_boundaries(x_star):
    # cirmort verify's MC run: 0.9 x*, x* and 1.1 x* on common paths
    return [x_star - 0.1 * x_star, x_star, x_star + 0.1 * x_star]


# case: ((cir, contract, x0, boundaries, paths, dt, horizon, seed),
#        [(value_estimate, std_error, path_steps) per boundary])
MC_PINS = {
    # verify on the primary fixture; its paths reach the roulette
    "verify_primary": (
        (PRIMARY_CIR, CONTRACT, 0.06, _verify_boundaries(PRIMARY_X_STAR),
         2000, 1.0 / 252.0, 400.0, 0),
        [("0x1.bd831e61ec5efp-1", "0x1.2c791b9ae5c0fp-8", 14061140),
         ("0x1.be4451a1819cdp-1", "0x1.2510c3118e9b6p-8", 14061140),
         ("0x1.be7f297af9d28p-1", "0x1.17bb84df91327p-8", 14061140)]),
    # the noncentral_chisquare transition of df <= 1
    "df_below_one": (
        (*DF_BELOW_ONE, 0.030652, _verify_boundaries(DF_BELOW_ONE_X_STAR),
         500, 1.0 / 252.0, 400.0, 0),
        [("0x1.e8e0278978100p-1", "0x1.90e2afa630fe4p-8", 519912),
         ("0x1.e87949fb15becp-1", "0x1.8fdc86749f34ep-8", 519912),
         ("0x1.e96aa991f0645p-1", "0x1.86fe94355c180p-8", 519912)]),
    "one_path": (
        (PRIMARY_CIR, CONTRACT, 0.06, [PRIMARY_X_STAR], 1, 1.0 / 252.0,
         400.0, 3),
        [("0x1.72b63e5e40b39p-1", "0x0.0p+0", 7560)]),
    # x0 on the middle boundary: two of the three stop at once
    "x0_on_a_boundary": (
        (PRIMARY_CIR, CONTRACT, 0.04, [0.02, 0.04, 0.06], 300, 0.25, 100.0,
         1),
        [("0x1.dd79f8599fcb0p-1", "0x1.030a29e6136a7p-7", 20000),
         ("0x1.0000000000000p+0", "0x0.0p+0", 20000),
         ("0x1.0000000000000p+0", "0x0.0p+0", 20000)]),
    # the horizon ends the run with paths still live
    "horizon_cuts_live_paths": (
        (PRIMARY_CIR, CONTRACT, 0.06, [0.005], 500, 1.0 / 52.0, 20.0, 2),
        [("0x1.48ee77e6b2b27p-1", "0x1.028fb62aff582p-7", 488272)]),
}


@pytest.mark.parametrize("case", sorted(MC_PINS))
def test_mc_reports_are_pinned(case):
    args, want = MC_PINS[case]
    got = [(r.value_estimate.hex(), r.std_error.hex(), r.path_steps)
           for r in _simulate_threshold(*args)]
    assert got == want


@pytest.mark.parametrize("budget", [1, 600])
@pytest.mark.parametrize("case", sorted(set(MC_PINS) - {"verify_primary"}))
def test_block_length_changes_no_report(monkeypatch, case, budget):
    # one-step blocks, and blocks of a few steps that cut each segment
    # into several; the working set changes only at segment ends and
    # roulettes, so every stream is drawn in the same order either way
    args, _ = MC_PINS[case]
    want = _simulate_threshold(*args)
    monkeypatch.setattr(oracles, "_BLOCK_ELEMENTS", budget)
    assert _simulate_threshold(*args) == want
