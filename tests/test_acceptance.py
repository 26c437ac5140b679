"""Acceptance criteria: property-based and cross-method checks with pinned
tolerances and runtime budgets.

The 81-point parameter grid of scripts/solve_grid.py is solved once per
session; 31 of the sets have no interior boundary (the continuation value
stays below par everywhere), in which case the closed form raises
NoBracketError.  Cross-method criteria
treat a matched NoBracketError from the independent oracle as agreement and
the per-curve criteria quantify over the solved subset.  Criteria that
repeat a check of `cirmort verify` call the same check function.
"""

import csv
import math
import runpy
import time
from pathlib import Path

import numpy as np
import pytest

from cirmort import cli
from cirmort.closed_form import solve_boundary, value
from cirmort.errors import NoBracketError
from cirmort.model import CirParams, ContractParams
from cirmort.oracles import shoot_solve
from cirmort.specfun import _kummer_m_scaled, _tricomi_u_raw

SOLVE_GRID = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "solve_grid.py"))
GRID = SOLVE_GRID["GRID"]

PRIMARY_CIR = CirParams(k=0.25, theta=0.06, sigma=0.1)
CONTRACT = ContractParams(c=0.05, m=0.05)


@pytest.fixture(scope="module")
def grid_solutions():
    t0 = time.monotonic()
    out = {}
    for k, theta, sigma, c in GRID:
        cir = CirParams(k=k, theta=theta, sigma=sigma)
        con = ContractParams(c=c, m=c)
        try:
            out[(k, theta, sigma, c)] = solve_boundary(cir, con)
        except NoBracketError:
            out[(k, theta, sigma, c)] = None
    return out, time.monotonic() - t0


def test_solve_grid_script_writes_the_grid(grid_solutions, tmp_path,
                                           capsys):
    sols, _ = grid_solutions
    out = tmp_path / "grid.csv"
    assert SOLVE_GRID["main"](["--csv", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 81
    assert sum(1 for r in rows if r["x_star"] == "") == 31
    for r in rows:
        sol = sols[tuple(float(r[name]) for name in ("k", "theta", "sigma",
                                                     "c"))]
        if sol is None:
            assert r["x_star"] == ""
        else:
            assert float(r["x_star"]) == sol.x_star


def _statuses(checks):
    return {ch["name"]: ch["status"] for ch in checks}


def test_criterion_1_special_function_identities():
    t0 = time.monotonic()
    # M from ln(e^{-z} M), U from ln U: the functions the solver calls
    assert abs(math.exp(_kummer_m_scaled(1.0, 2.0, 1.0) + 1.0)
               - (math.e - 1.0)) <= 1e-10 * (math.e - 1.0)
    for a, z in [(0.5, 4.0), (2.0, 1.5), (3.5, 30.0)]:
        want = z ** -a
        got = math.exp(_tricomi_u_raw(a, a + 1.0, np.array([z]))[0][0])
        assert abs(got - want) <= 1e-10 * want
    for alpha, gamma in [(0.7, 2.3), (3.0, 8.0)]:
        assert _kummer_m_scaled(alpha, gamma, 0.0) == 0.0
    assert abs(math.exp(math.lgamma(0.5)) - math.sqrt(math.pi)) \
        <= 1e-10 * math.sqrt(math.pi)
    # verify's identities and its Wronskian grid
    checks = cli._specfun_checks()
    assert _statuses(checks) == {"specfun_identities": "pass",
                                 "wronskian_grid": "pass"}, checks
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_smooth_pasting_on_grid(grid_solutions):
    sols, elapsed = grid_solutions
    t0 = time.monotonic()
    solved = 0
    for key, sol in sols.items():
        if sol is None:
            continue
        solved += 1
        assert abs(sol.diagnostics.pasting_value_error) <= 1e-8, key
        assert abs(sol.diagnostics.pasting_slope) <= 1e-6, key
    assert solved >= 50
    assert elapsed + (time.monotonic() - t0) < 60.0


def test_boundary_lies_below_the_coupon(grid_solutions):
    # in the stopped region V = 1, so the variational inequality
    # L V + c = c - x >= 0 needs x* <= c
    sols, _ = grid_solutions
    for (k, theta, sigma, c), sol in sols.items():
        if sol is not None:
            assert 0.0 < sol.x_star < c, (k, theta, sigma, c)


def test_criterion_3_ode_residual_on_grid(grid_solutions):
    sols, _ = grid_solutions
    for key, sol in sols.items():
        if sol is None:
            continue
        config = cli.RunConfig(cir=sol.cir, contract=sol.contract)
        checks = cli._closed_form_checks(config, sol)
        assert _statuses(checks)["ode_residual"] == "pass", (key, checks)


def test_ode_residual_on_grid_is_at_rounding_level(grid_solutions):
    # V'' comes from the same evaluation as V and V', with no difference
    # stencil, so at verify's 100 probes the residual is rounding error
    sols, _ = grid_solutions
    for key, sol in sols.items():
        if sol is None:
            continue
        config = cli.RunConfig(cir=sol.cir, contract=sol.contract)
        measured = {ch["name"]: ch["measured"]
                    for ch in cli._closed_form_checks(config, sol)}
        assert measured["ode_residual"] <= 1e-12 * sol.contract.c, key


def test_criterion_4_closed_form_vs_shooting(grid_solutions):
    sols, _ = grid_solutions
    for (k, theta, sigma, c), sol in sols.items():
        if sol is None:
            # both routes must agree that no interior boundary exists
            with pytest.raises(NoBracketError):
                shoot_solve(CirParams(k=k, theta=theta, sigma=sigma),
                            ContractParams(c=c, m=c), tol=1e-6)
            continue
        config = cli.RunConfig(cir=sol.cir, contract=sol.contract)
        checks, _, _ = cli._shooting_checks(config, sol)
        assert _statuses(checks) == {"shooting_agreement": "pass"}, \
            ((k, theta, sigma, c), checks)


def test_criterion_5_closed_form_vs_finite_differences(primary_solution):
    t0 = time.monotonic()
    # FD on 2000 and 1000 nodes: the boundary within 2 cells, the profile
    # within 5 Richardson estimates of the FD error
    config = cli.RunConfig(cir=PRIMARY_CIR, contract=CONTRACT, fd_nodes=2000)
    checks, _, _ = cli._fd_checks(config, primary_solution)
    assert _statuses(checks) == {"fd_boundary": "pass",
                                 "fd_profile": "pass"}, checks
    # the bound is the Richardson estimate itself, not its 1e-9 floor
    tolerance = {ch["name"]: ch["tolerance"] for ch in checks}["fd_profile"]
    assert tolerance > 5.0 * 1e-9, checks
    assert time.monotonic() - t0 < 60.0


@pytest.mark.slow
def test_criterion_6_monte_carlo_consistency(primary_solution, monkeypatch):
    t0 = time.monotonic()
    # one common-random-number run from theta covers both sub-criteria: the
    # middle boundary's value must match V(theta), and since the borrower
    # minimizes value, the boundaries 10% off must not beat it by more than
    # noise
    probe, reports = cli.oracles.mc_optimality_probe, []

    def recording_probe(*args, **kwargs):
        reports.append(probe(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(cli.oracles, "mc_optimality_probe", recording_probe)
    config = cli.RunConfig(cir=PRIMARY_CIR, contract=CONTRACT,
                           mc_paths=100_000)
    checks, _, v_theta = cli._mc_checks(config, primary_solution)
    assert v_theta is not None           # the paths start at theta
    assert _statuses(checks) == {"mc_agreement": "pass",
                                 "mc_optimality": "pass"}, checks
    # verify's mc_optimality pools the two sides; hold each side to its own
    # 3-SE bound
    (lo, mid, hi), = reports
    for other in (lo, hi):
        beat = mid.value_estimate - other.value_estimate
        assert beat <= 3.0 * math.hypot(mid.std_error, other.std_error), \
            (other.boundary_used, beat)
    assert time.monotonic() - t0 < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the tail criterion is not attainable at this abscissa: "
           "x V(x) - c = (k c / x)(1 + O(1/x)), so at x = 50 max(theta, c, "
           "x*) the deviation is about k c / (50 max(theta, c)), between "
           "0.02c and 3.3c on this grid, far above the 1e-3 c bound; the "
           "bound would require x of order 1000 k. The implementation is "
           "correct (the measured gap matches k c / x, see the tail tests "
           "in test_closed_form and the tail_decay check in cmd_verify, "
           "which probes x >= 100 k against the first-order term).")
def test_criterion_7_tail_behavior(grid_solutions):
    sols, _ = grid_solutions
    for (k, theta, sigma, c), sol in sols.items():
        if sol is None:
            continue
        x = 50.0 * max(theta, c, sol.x_star)
        assert abs(x * value(sol, x) - c) <= 1e-3 * c, (k, theta, sigma, c)


def test_criterion_8_monotonic_and_bounded(grid_solutions):
    sols, _ = grid_solutions
    for (k, theta, sigma, c), sol in sols.items():
        if sol is None:
            continue
        xs = np.linspace(sol.x_star, 10.0 * max(theta, c), 60)
        vs = value(sol, xs)
        assert np.all((vs > 0.0) & (vs <= 1.0 + 1e-12)), (k, theta, sigma, c)
        assert np.all(np.diff(vs) < 0.0), (k, theta, sigma, c)


def test_criterion_9_determinism(capsys):
    solve_argv = ["solve", "--k", "0.25", "--theta", "0.06",
                  "--sigma", "0.1", "--c", "0.05"]
    verify_argv = ["verify", "--k", "0.25", "--theta", "0.06",
                   "--sigma", "0.1", "--c", "0.05", "--seed", "3",
                   "--fd-nodes", "400", "--mc-paths", "2000",
                   "--mc-dt", "0.02", "--mc-horizon", "60"]
    outs = []
    for argv in (solve_argv, solve_argv, verify_argv, verify_argv):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[2] == outs[3]
