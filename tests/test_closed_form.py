"""Unit tests for the analytical solution: source term, kernel, particular
solution, annuity, boundary residual, and the solved value function."""

import dataclasses
import math
import runpy
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from cirmort import cli, closed_form, specfun
from cirmort.closed_form import (DiagnosticsWarning, _Workspace, ode_residual,
                                 solve_boundary, value, value_curve,
                                 value_derivative)
from cirmort.errors import (BoundaryBelowFloorError, ConvergenceError,
                            DomainError, NoBracketError, ValidationError)
from cirmort.model import CirParams, ContractParams, derive_constants
from cirmort.oracles import shoot_solve
from cirmort.specfun import _kummer_m_scaled, _tricomi_u_raw  # noqa: the
# log-space helpers are internal but are the only overflow-free route for the
# asymptotic-elimination check below
from closed_form_reference import (annuity_at_zero_betainc, annuity_mp,
                                   annuity_residual_mp, annuity_w_mp,
                                   boundary_residual,
                                   boundary_residual_ratio_form,
                                   kernel_weight, particular_solution,
                                   source_term)

GRID = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts"
                           / "solve_grid.py"))["GRID"]
UNIT_CIR = CirParams(k=1.0, theta=1.0, sigma=1.0)
PRIMARY_CIR = CirParams(k=0.25, theta=0.06, sigma=0.1)
CONTRACT = ContractParams(c=0.05, m=0.05)
# ROADMAP item 11's wide box: k, theta, sigma, c, each drawn log-uniformly
WIDE_BOX = ((1e-4, 1e3), (1e-5, 3.0), (3e-4, 5.0), (1e-4, 1.0))


@pytest.fixture(scope="module")
def primary_consts():
    return derive_constants(PRIMARY_CIR)


# ---------------------------------------------------------------------------
# source term and kernel

def test_source_term_at_zero():
    d = derive_constants(UNIT_CIR)
    got = source_term(d, CONTRACT, 0.0)
    assert got == pytest.approx(-0.05 / math.sqrt(3.0), rel=1e-12)
    assert got == pytest.approx(-0.0288675, abs=1e-7)


def test_source_term_ratio_property(primary_consts):
    g0 = source_term(primary_consts, CONTRACT, 0.0)
    for z in (0.5, 3.0, 10.0):
        want = g0 * math.exp(primary_consts.a_exp * z)
        assert source_term(primary_consts, CONTRACT, z) == pytest.approx(
            want, rel=1e-12)


def test_source_term_fixture_value(primary_consts):
    assert primary_consts.a_exp == pytest.approx(0.0648059, abs=1e-7)
    got = source_term(primary_consts, CONTRACT, 10.0)
    assert got == pytest.approx(-0.33281, abs=1e-4)


def test_kernel_weight_positive_and_decay_identity(primary_consts):
    a = primary_consts.a_exp
    g = primary_consts.gamma
    for xi in np.geomspace(0.01, 30.0, 12):
        w1 = kernel_weight(primary_consts, CONTRACT, float(xi))
        w2 = kernel_weight(primary_consts, CONTRACT, float(2.0 * xi))
        assert w1 > 0
        want = 2.0 ** (g - 1.0) * math.exp(-(1.0 - a) * xi)
        assert w2 / w1 == pytest.approx(want, rel=1e-10)


def test_kernel_weight_simple_parameters():
    # alpha = gamma = 1 makes the Gamma ratio 1 and xi^{gamma-1} = 1, so
    # w(1) = (c/s) e^{-(1-a)}
    d = derive_constants(CirParams(k=1.0, theta=0.5, sigma=1.0))
    assert d.gamma == pytest.approx(1.0, rel=1e-12)
    assert d.alpha == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(3.0)),
                                    rel=1e-10)
    # exercise only the structural form here: ratio against the direct
    # log-space formula
    kappa_scale = (math.gamma(d.alpha) / math.gamma(d.gamma)) * (0.05 / d.s)
    want = kappa_scale * math.exp(-(1.0 - d.a_exp) * 1.0)
    assert kernel_weight(d, CONTRACT, 1.0) == pytest.approx(want, rel=1e-12)


def test_kernel_weight_domain():
    d = derive_constants(PRIMARY_CIR)
    with pytest.raises(DomainError):
        kernel_weight(d, CONTRACT, 0.0)


# ---------------------------------------------------------------------------
# particular solution

def test_particular_solution_regression_fixture(primary_consts):
    # values recorded after the first oracle-verified run
    up, upp = particular_solution(primary_consts, CONTRACT, 1.0, 1.0)
    assert up == pytest.approx(0.9614492325406931, rel=1e-9)
    assert upp == pytest.approx(0.07977304605168047, rel=1e-9)


def test_particular_solution_linearity_in_c(primary_consts):
    up1, upp1 = particular_solution(primary_consts, CONTRACT, 2.0, 1.0)
    double = ContractParams(c=0.10, m=0.10)
    d2 = derive_constants(PRIMARY_CIR)
    up2, upp2 = particular_solution(d2, double, 2.0, 1.0)
    assert up2 == pytest.approx(2.0 * up1, rel=1e-10)
    assert upp2 == pytest.approx(2.0 * upp1, rel=1e-10)


def test_particular_solution_ode_residual(primary_consts):
    # z u_p'' + (gamma - z) u_p' - alpha u_p = g(z), with u_p'' from a
    # finite difference of the analytic u_p'
    z = 1.5
    z_ref = 1.0
    h = 1e-5
    up, upp = particular_solution(primary_consts, CONTRACT, z, z_ref)
    _, upp_hi = particular_solution(primary_consts, CONTRACT, z + h, z_ref)
    _, upp_lo = particular_solution(primary_consts, CONTRACT, z - h, z_ref)
    upp2 = (upp_hi - upp_lo) / (2.0 * h)
    g = source_term(primary_consts, CONTRACT, z)
    resid = (z * upp2 + (primary_consts.gamma - z) * upp
             - primary_consts.alpha * up - g)
    assert abs(resid) <= 1e-6 * abs(g)


def test_particular_solution_requires_ordered_arguments(primary_consts):
    with pytest.raises(DomainError):
        particular_solution(primary_consts, CONTRACT, 1.0, 2.0)
    with pytest.raises(DomainError):
        particular_solution(primary_consts, CONTRACT, 1.0, 0.0)


# ---------------------------------------------------------------------------
# annuity A = c int P dt

ANNUITY_SETS = [
    pytest.param(PRIMARY_CIR, 0.05, id="primary"),
    pytest.param(CirParams(k=0.1, theta=0.03, sigma=0.2), 0.05,
                 id="low_alpha"),                          # alpha = 0.05
    pytest.param(CirParams(k=0.5, theta=0.1, sigma=0.05), 0.05,
                 id="gamma_40"),
    pytest.param(CirParams(k=0.21605, theta=0.014419, sigma=0.49818),
                 0.037467, id="gamma_0.025"),
    pytest.param(CirParams(k=0.024337, theta=0.021019, sigma=0.168964),
                 0.023025, id="gamma_0.036"),
]


def _annuity_check(cir, c, reference, **kwargs):
    """A, A' and A'' of the workspace within 1e-13 relative of reference
    from 1e-4 theta to the tail probe of cmd_verify."""
    con = ContractParams(c=c, m=c)
    ws = _Workspace(cir, con)
    d = ws.consts
    xs = np.array([1e-4 * cir.theta, 1.0 / d.p, cir.theta,
                   10.0 * max(cir.theta, c), 1400.0 / d.p,
                   max(50.0 * max(cir.theta, c), 100.0 * cir.k)])
    for x, *got in zip(xs, *ws.annuity(xs)):
        # A, A' and A'' do not cancel: each integrand keeps one sign
        for v, want in zip(got, reference(cir, con, x, **kwargs)):
            assert abs(v - want) <= 1e-13 * abs(want), x


@pytest.mark.parametrize("cir,c", ANNUITY_SETS)
def test_annuity_matches_bond_price_quadrature(cir, c):
    _annuity_check(cir, c, annuity_mp, dps=25)


@pytest.mark.parametrize("cir,c", ANNUITY_SETS + [
    pytest.param(CirParams(k=4.4479, theta=0.0037, sigma=0.0135), 0.0056,
                 id="alpha_8.3e-4"),
    pytest.param(CirParams(k=0.25, theta=0.06, sigma=0.001), 0.05,
                 id="gamma_3e4"),
    pytest.param(CirParams(k=0.02, theta=0.3, sigma=0.002), 0.05,
                 id="alpha_15"),
    # the set of the t-rule's too-short reach; annuity_mp is 2.5e-10 off
    # there at 40 digits
    pytest.param(CirParams(k=8.74e-4, theta=0.335, sigma=8.88e-4), 0.0145,
                 id="alpha_159"),
])
def test_annuity_matches_the_w_integral(cir, c):
    _annuity_check(cir, c, annuity_w_mp)


# ---------------------------------------------------------------------------
# the tail integral IU~ behind c2

def _msc_iu_nested(consts, contract, z):
    """e^{-z} M(z) IU~(z) with IU~(z) = kappa int_0^inf U(z+s) (z+s)^{gamma-1}
    e^{-(1-a) s} ds: the nested definition, with mpmath's M, U and
    quadrature."""
    with mp.workdps(20):
        al, g, a = (mp.mpf(consts.alpha), mp.mpf(consts.gamma),
                    mp.mpf(consts.a_exp))
        z = mp.mpf(z)
        kappa = mp.gamma(al) / mp.gamma(g) * mp.mpf(contract.c) / consts.s
        total = mp.quad(lambda s: mp.hyperu(al, g, z + s) * (z + s) ** (g - 1)
                        * mp.exp(-(1 - a) * s), [0, 1, 10, 60, mp.inf])
        return float(kappa * total * mp.exp(-z) * mp.hyp1f1(al, g, z))


@pytest.mark.parametrize("cir", [
    PRIMARY_CIR,
    CirParams(k=0.1, theta=0.03, sigma=0.2),     # alpha = 0.05, gamma = 0.15
    CirParams(k=0.5, theta=0.1, sigma=0.05),     # gamma = 40
], ids=["primary", "low_alpha", "gamma_40"])
def test_iu_matches_nested_definition(cir):
    ws = _Workspace(cir, CONTRACT)
    d = ws.consts
    # the 2x2 solve that gives c2 at z* holds at every z (with z_ref = z):
    # from z = 1e-4 p theta to the tail probe of cmd_verify
    zs = np.array([1e-4 * d.p * cir.theta, 1.0, d.p * cir.theta,
                   10.0 * d.p * max(cir.theta, CONTRACT.c), 1400.0])
    ann, ann_x, _ = ws.annuity(zs / d.p)
    ratio = _tricomi_u_raw(d.alpha, d.gamma, zs)[1]
    for z, v, v_x, r in zip(zs, ann, ann_x, ratio):
        got = closed_form._msc_iu(ws, float(z), float(v), float(v_x),
                                  float(r))
        want = _msc_iu_nested(d, CONTRACT, z)
        assert abs(got - want) <= 1e-12 * want, z


def test_residual_matches_one_terms_pass(primary_consts):
    # each single-z residual and its slope in ln z equal R/p and its slope
    # formed from one terms pass over the whole grid
    ws = _Workspace(PRIMARY_CIR, CONTRACT)
    p, a = primary_consts.p, primary_consts.a_exp
    grid = np.geomspace(1e-4 * p * PRIMARY_CIR.theta,
                        10.0 * p * PRIMARY_CIR.theta, 64)
    single = np.array([ws.residual_scaled(float(z)) for z in grid]).T
    ann, ann_x, ann_xx, _, ratio, ratio2 = ws.terms(grid)
    want = ((1.0 - ann) * (ratio - a) + ann_x / p,
            grid * (ann_xx / (p * p) - ann_x / p * (ratio - a)
                    + (1.0 - ann) * (ratio2 - ratio * ratio)))
    for part in range(2):
        np.testing.assert_allclose(single[part], want[part],
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    # alpha = 8.3e-4: U''/U from the rule's Gauss-Jacobi inner range
    (CirParams(k=4.4479, theta=0.0037, sigma=0.0135), 0.0056),
], ids=["primary", "alpha_8.3e-4"])
def test_residual_slope_matches_a_central_difference(cir, c):
    con = ContractParams(c=c, m=c)
    ws = _Workspace(cir, con)
    z_star = solve_boundary(cir, con).z_star
    h = 1e-4
    for z in z_star * np.array([0.5, 0.8, 1.0, 1.25, 2.0]):
        slope = ws.residual_scaled(z)[1]
        diff = (ws.residual_scaled(z * math.exp(h))[0]
                - ws.residual_scaled(z * math.exp(-h))[0]) / (2.0 * h)
        assert abs(slope - diff) <= 1e-6 * abs(slope), z / z_star


# ---------------------------------------------------------------------------
# boundary residual and solve

def test_residual_vanishes_at_root(primary_solution, primary_consts):
    z_star = primary_solution.z_star
    f = boundary_residual(primary_consts, CONTRACT, z_star)
    scale = 1.0 + abs(primary_consts.a_exp
                      * math.exp(primary_consts.a_exp * z_star))
    assert abs(f) <= 1e-10 * scale


def test_residual_brackets_the_root(primary_solution, primary_consts):
    z_star = primary_solution.z_star
    lo = boundary_residual(primary_consts, CONTRACT, 0.5 * z_star)
    hi = boundary_residual(primary_consts, CONTRACT, 2.0 * z_star)
    assert lo * hi < 0


def test_ratio_form_shares_the_root(primary_solution, primary_consts):
    # the eliminated residual and the ratio-of-U form (single Gamma factor)
    # must locate the same z*
    z_star = primary_solution.z_star

    def f(z):
        return boundary_residual_ratio_form(primary_consts, CONTRACT, z)

    r = optimize.brentq(f, 0.5 * z_star, 2.0 * z_star, xtol=1e-12,
                        rtol=1e-12)
    assert abs(r - z_star) <= 1e-8 * z_star


def test_solve_primary_fixture(primary_solution):
    sol = primary_solution
    assert sol.x_star == pytest.approx(sol.z_star / sol.consts.p, rel=1e-14)
    assert closed_form.c2(sol) > 0
    # boundary fixture recorded from the shooting oracle at first build
    assert sol.x_star == pytest.approx(0.009217280309, rel=1e-8)


def test_solve_warns_only_when_a_diagnostic_misses(monkeypatch):
    def missed():
        with pytest.warns(DiagnosticsWarning) as rec:
            solve_boundary(PRIMARY_CIR, CONTRACT)
        return " ".join(str(w.message) for w in rec
                        if w.category is DiagnosticsWarning)

    with warnings.catch_warnings():
        warnings.simplefilter("error", DiagnosticsWarning)
        sol = solve_boundary(PRIMARY_CIR, CONTRACT)
    # no ODE residual meets a zero bound
    monkeypatch.setattr(closed_form, "ODE_RESIDUAL_TOL_PER_C", 0.0)
    msg = missed()
    assert "ode_residual_max" in msg and "pasting" not in msg
    monkeypatch.undo()
    monkeypatch.setattr(closed_form, "PASTING_SLOPE_TOL", 0.0)
    msg = missed()
    assert "pasting_slope" in msg and "ode_residual_max" not in msg
    # cirmort verify reads the same bound
    checks = {ch["name"]: ch for ch in cli._closed_form_checks(
        cli.RunConfig(cir=PRIMARY_CIR, contract=CONTRACT), sol)}
    assert checks["smooth_pasting_slope"]["status"] == "fail"
    assert checks["smooth_pasting_slope"]["tolerance"] == 0.0
    assert checks["smooth_pasting_value"]["status"] == "pass"


@pytest.mark.parametrize("module,name,perturb", [
    # A scaled by 1 + 1e-6, its log prefactor shifted by 1e-6, no longer
    # solves L A + c = 0
    (_Workspace, "_annuity_nodes",
     lambda f: lambda ws, n: f(ws, n) + [[1e-6], [0.0], [0.0], [0.0]]),
    # U from a weight with gamma(1 + 1e-6) no longer solves Kummer's
    # equation at gamma; a U''/U taken from that equation would hide it
    (closed_form, "_LaplaceRule",
     lambda f: lambda alpha, gamma, *rest: f(alpha, gamma * (1.0 + 1e-6),
                                              *rest)),
], ids=["log_a", "u_weight_gamma"])
def test_ode_residual_sees_a_perturbed_solution(monkeypatch, module, name,
                                                perturb):
    # each moves the residual to about 1e-6 c, near its bound, from 1e-15 c
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DiagnosticsWarning)
        sol = solve_boundary(PRIMARY_CIR, CONTRACT)
    assert sol.diagnostics.ode_residual_max > 5e-7 * CONTRACT.c


def test_solve_second_fixture():
    cir = CirParams(k=0.5, theta=0.03, sigma=0.05)
    con = ContractParams(c=0.08, m=0.08)
    sol = solve_boundary(cir, con)
    assert abs(value(sol, sol.x_star) - 1.0) <= 1e-8
    assert abs(value_derivative(sol, sol.x_star)) <= 1e-6


def test_solve_rejects_m_not_equal_c():
    with pytest.raises(ValidationError) as exc:
        solve_boundary(PRIMARY_CIR, ContractParams(c=0.05, m=0.06))
    assert exc.value.field == "m"


def test_solve_rejects_too_small_tolerance():
    with pytest.raises(ValidationError):
        solve_boundary(PRIMARY_CIR, CONTRACT, tol=1e-15)


def test_solve_rejects_gamma_above_the_cap_before_building_anything(
        monkeypatch):
    # sigma^2 underflows to 0, to a subnormal, and leaves gamma = 3e298
    def no_workspace(*args):
        raise AssertionError("a workspace was built")
    monkeypatch.setattr(closed_form, "_Workspace", no_workspace)
    for sigma in (1e-170, 1e-160, 1e-150):
        with pytest.raises(ValidationError, match="gamma") as exc:
            solve_boundary(CirParams(k=0.25, theta=0.06, sigma=sigma),
                           CONTRACT)
        assert exc.value.field == "sigma"


def test_gamma_cap_separates_sets_just_above_and_below_it():
    # sigma at which 2 k theta / sigma^2 equals the cap
    sigma_cap = math.sqrt(2.0 * 0.25 * 0.06 / closed_form.GAMMA_CAP)
    with pytest.raises(ValidationError) as exc:
        solve_boundary(CirParams(k=0.25, theta=0.06,
                                 sigma=sigma_cap * (1.0 - 1e-3)), CONTRACT)
    assert exc.value.field == "sigma"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DiagnosticsWarning)
        sol = solve_boundary(CirParams(k=0.25, theta=0.06,
                                       sigma=sigma_cap * (1.0 + 1e-3)),
                             CONTRACT)
    assert 0.99 * closed_form.GAMMA_CAP < sol.consts.gamma \
        < closed_form.GAMMA_CAP
    assert 0.0 < sol.x_star < CONTRACT.c


def test_solution_needs_its_workspace_and_branch_constants(primary_solution):
    # without them V would silently be the annuity A
    public = {f: getattr(primary_solution, f)
              for f in ("cir", "contract", "consts", "z_star", "x_star",
                        "diagnostics")}
    with pytest.raises(TypeError):
        closed_form.SteadyStateSolution(**public)


def test_solve_tolerance_monotonicity():
    tol = 1e-6
    a = solve_boundary(PRIMARY_CIR, CONTRACT, tol=tol)
    b = solve_boundary(PRIMARY_CIR, CONTRACT, tol=tol / 10.0)
    assert abs(a.z_star - b.z_star) <= 10.0 * tol * a.z_star


@pytest.mark.parametrize("cir,c", [
    (CirParams(k=0.25, theta=0.06, sigma=0.015), 0.05),
    (CirParams(k=0.5, theta=0.05, sigma=0.02), 0.06),
    # two draws of the fuzz box below; the second has alpha = 8.3e-4
    (CirParams(k=1.0609, theta=0.05, sigma=0.0131), 0.0825),
    (CirParams(k=4.4479, theta=0.0037, sigma=0.0135), 0.0056),
    # two small-gamma draws where bisection shooting missed by 5.9e-6 and
    # 8.6e-5; the 30-digit residual puts the root at the closed form
    (CirParams(k=0.024337, theta=0.021019, sigma=0.168964), 0.023025),
    (CirParams(k=0.21605, theta=0.014419, sigma=0.49818), 0.037467),
    # three draws of the README box where M(alpha, gamma, z*) leaves float
    # range (z* = 5554, 4444 and 19528), so c2 needs ln M
    (CirParams(k=1.0, theta=0.02, sigma=0.006), 0.1),
    (CirParams(k=0.452, theta=0.03076, sigma=0.00547), 0.14711),
    (CirParams(k=4.27469, theta=0.05622, sigma=0.00739), 0.12475),
], ids=["gamma_133", "gamma_125", "gamma_618", "gamma_180", "gamma_0.036",
        "gamma_0.025", "gamma_1111", "gamma_929", "gamma_8801"])
def test_extreme_gamma_boundary_matches_shooting(cir, c):
    # at large gamma U leaves float range at small z; ln U does not
    con = ContractParams(c=c, m=c)
    sol = solve_boundary(cir, con)
    rep = shoot_solve(cir, con, tol=1e-8)
    assert abs(sol.x_star - rep.r_star) <= 1e-6 * rep.r_star
    assert not math.isnan(closed_form.c2(sol))


def test_boundary_solves_where_m_has_no_series_at_z_star():
    # alpha = 1150, gamma = 4691: hyp1f1 overflows at z* = 3190 and M's
    # large-z series needs z > gamma, so c2 raises ConvergenceError; the
    # boundary and V need no M
    cir = CirParams(k=3.62e-4, theta=1.208, sigma=4.32e-4)
    con = ContractParams(c=0.420, m=0.420)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_boundary(cir, con)
    rep = shoot_solve(cir, con, tol=1e-8)
    assert abs(sol.x_star - rep.r_star) <= 1e-12 * rep.r_star
    with pytest.raises(ConvergenceError):
        closed_form.c2(sol)


def test_fuzz_box_solves_within_bounds_or_has_no_bracket():
    # 60 log-uniform draws over k in [0.01, 5], theta in [0.003, 0.3],
    # sigma in [0.005, 0.5] and c in [0.005, 0.2]: gamma from 0.0043 to
    # 35,000, alpha down to 8e-4
    rng = np.random.default_rng(12345)
    lo = np.log([0.01, 0.003, 0.005, 0.005])
    hi = np.log([5.0, 0.3, 0.5, 0.2])
    solved = 0
    for _ in range(60):
        k, theta, sigma, c = np.exp(lo + (hi - lo) * rng.random(4)).tolist()
        cir = CirParams(k=k, theta=theta, sigma=sigma)
        con = ContractParams(c=c, m=c)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticsWarning)
            try:
                sol = solve_boundary(cir, con)
            except NoBracketError:
                # the Riccati sweep finds no boundary either
                with pytest.raises(NoBracketError):
                    shoot_solve(cir, con, tol=1e-8)
                continue
        solved += 1
        r_star = shoot_solve(cir, con, tol=1e-8).r_star
        assert abs(sol.x_star - r_star) <= 1e-6 * r_star, (k, theta, sigma, c)
    assert solved > 0


@settings(max_examples=1500, derandomize=True, database=None)
@given(st.tuples(*(st.floats(math.log(lo), math.log(hi))
                   for lo, hi in WIDE_BOX)))
def test_wide_box_solves_within_bounds_or_raises_a_documented_error(logs):
    # gamma from 8e-11 to 7e10: a solve meets its diagnostic bounds, with
    # x* < c and no numpy warning, or raises one of solve_boundary's
    # documented errors; a gamma above GAMMA_CAP is the only
    # ValidationError.  V <= 1 is not asserted: at small alpha the factor
    # 1 - A(x*) amplifies rounding, and V exceeds 1 by up to 4.3e-8 at
    # alpha = 6.6e-9 (README, Supported box)
    k, theta, sigma, c = (math.exp(v) for v in logs)
    cir = CirParams(k=k, theta=theta, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DiagnosticsWarning)
        warnings.simplefilter("error", RuntimeWarning)
        try:
            sol = solve_boundary(cir, ContractParams(c=c, m=c))
        except (NoBracketError, BoundaryBelowFloorError):
            return
        except ValidationError as exc:
            assert exc.field == "sigma"
            return
    assert sol.x_star < c
    assert np.all(np.isfinite(dataclasses.astuple(sol.diagnostics)))


@pytest.mark.parametrize("cir,c", [
    # gamma = 0.0043, alpha = 0.0021 and A(x*) of about 59, so 1 - A(x*)
    # multiplies U's error: a U rule with five equal panels in u = t^alpha
    # on [1/2, 1] put the boundary 2.4e-4 above this root
    (CirParams(k=0.013318, theta=0.011423, sigma=0.265309), 0.045874),
    # the two small-gamma sets of the shooting test above
    (CirParams(k=0.024337, theta=0.021019, sigma=0.168964), 0.023025),
    (CirParams(k=0.21605, theta=0.014419, sigma=0.49818), 0.037467),
    # two draws of the README box with roots far below theta: x* = 1.9e-6
    # and 2.1e-12
    (CirParams(k=0.18524, theta=0.052663, sigma=0.38733), 0.031937),
    (CirParams(k=0.082411, theta=0.0093743, sigma=0.28582), 0.0083310),
], ids=["gamma_0.0043", "gamma_0.036", "gamma_0.025", "gamma_0.13",
        "gamma_0.019"])
def test_annuity_residual_changes_sign_across_the_small_alpha_root(cir, c):
    con = ContractParams(c=c, m=c)
    x_star = solve_boundary(cir, con).x_star
    lo = annuity_residual_mp(cir, con, x_star * (1.0 - 1e-6))
    hi = annuity_residual_mp(cir, con, x_star * (1.0 + 1e-6))
    assert lo * hi < 0


def test_grid_refines_the_root_in_few_residual_evaluations(monkeypatch):
    # the 50 grid sets with a boundary: Newton on R/p and its slope needs
    # fewer single-point residuals than brentq on R/p alone (11.74 a set)
    # and finds brentq's root on the same residual
    residual_scaled = _Workspace.residual_scaled
    calls = []

    def counted(ws, z):
        if np.ndim(z) == 0:
            calls[-1] += 1
        return residual_scaled(ws, z)

    monkeypatch.setattr(_Workspace, "residual_scaled", counted)
    for k, theta, sigma, c in GRID:
        cir = CirParams(k=k, theta=theta, sigma=sigma)
        con = ContractParams(c=c, m=c)
        calls.append(0)
        try:
            sol = solve_boundary(cir, con)
        except NoBracketError:
            calls.pop()
            continue
        ws = _Workspace(cir, con)
        z_ref = optimize.brentq(lambda z: residual_scaled(ws, z)[0],
                                0.5 * sol.z_star, 2.0 * sol.z_star,
                                xtol=1e-300, rtol=1e-15)
        assert abs(sol.z_star - z_ref) <= 1e-10 * z_ref, (k, theta, sigma, c)
    assert len(calls) == 50
    assert sum(calls) <= 9 * len(calls)


def test_no_interior_boundary_regime_raises_no_bracket():
    # high theta relative to c: continuation value stays below one
    # everywhere, so the residual never changes sign
    cir = CirParams(k=0.1, theta=0.1, sigma=0.05)
    con = ContractParams(c=0.03, m=0.03)
    with pytest.raises(NoBracketError) as exc:
        solve_boundary(cir, con)
    assert exc.value.annuity_at_zero <= 1.0


def test_no_bracket_builds_no_u_rule(monkeypatch):
    # A(0) <= 1 is decided from the annuity alone
    def no_rule(*args):
        raise AssertionError("a U rule was built")
    monkeypatch.setattr(closed_form, "_LaplaceRule", no_rule)
    with pytest.raises(NoBracketError):
        solve_boundary(CirParams(k=0.1, theta=0.1, sigma=0.05),
                       ContractParams(c=0.03, m=0.03))


def test_no_bracket_if_and_only_if_the_annuity_at_zero_is_at_most_one():
    # the 81 grid sets and the first 400 seed-2024 draws of the README box;
    # on the grid the Riccati sweep's Y at its floor, which tends to A(0)
    # with no annuity rule, must match the solver's A(0)
    rng = np.random.default_rng(2024)
    lo = np.log([0.01, 0.003, 0.005, 0.005])
    hi = np.log([5.0, 0.3, 0.5, 0.2])
    draws = [np.exp(lo + (hi - lo) * rng.random(4)).tolist()
             for _ in range(400)]
    no_bracket = 0
    for i, (k, theta, sigma, c) in enumerate(GRID + draws):
        cir = CirParams(k=k, theta=theta, sigma=sigma)
        con = ContractParams(c=c, m=c)
        ann_zero = float(_Workspace(cir, con).annuity(np.zeros(1))[0][0])
        try:
            solve_boundary(cir, con)
        except NoBracketError as exc:
            assert ann_zero <= 1.0, (k, theta, sigma, c)
            assert exc.annuity_at_zero == ann_zero
            if i < len(GRID):
                no_bracket += 1
                with pytest.raises(NoBracketError) as swept:
                    shoot_solve(cir, con, tol=1e-8)
                assert abs(swept.value.annuity_at_zero - ann_zero) \
                    <= 1e-8 * ann_zero, (k, theta, sigma, c)
            continue
        assert ann_zero > 1.0, (k, theta, sigma, c)
    assert no_bracket == 31


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    (CirParams(k=0.1, theta=0.1, sigma=0.05), 0.03),    # no boundary
], ids=["primary", "no_boundary"])
def test_annuity_at_zero_matches_bond_price_quadrature(cir, c):
    con = ContractParams(c=c, m=c)
    got = _Workspace(cir, con).annuity(np.zeros(1))[0][0]
    want = annuity_mp(cir, con, 0.0)[0]
    assert abs(got - want) <= 1e-13 * want


def test_root_below_the_rate_floor_raises_boundary_below_floor(monkeypatch):
    # A(0) > 1 here and x* = 2.1e-12: with the floor moved above the root,
    # neither NoBracketError nor U's DomainError at z = 0 may come out
    cir = CirParams(k=0.082411, theta=0.0093743, sigma=0.28582)
    con = ContractParams(c=0.0083310, m=0.0083310)
    assert solve_boundary(cir, con).x_star < 1e-11
    monkeypatch.setattr(closed_form, "RATE_FLOOR", 1e-11)
    with pytest.raises(BoundaryBelowFloorError) as exc:
        solve_boundary(cir, con)
    assert not isinstance(exc.value, (NoBracketError, DomainError))


def test_root_below_the_default_rate_floor_raises():
    # alpha = 3.6e-4 and sigma^2 >> k theta put x* near 1e-269, where U's
    # rule forms t^2 beyond float range; below RATE_FLOOR = 1e-100 no
    # boundary is returned
    cir = CirParams(k=0.0003874, theta=0.3798, sigma=0.6395)
    con = ContractParams(c=0.0009067, m=0.0009067)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoundaryBelowFloorError):
            solve_boundary(cir, con)


@pytest.mark.parametrize("k", [0.001, 0.003, 0.005, 0.01])
@pytest.mark.parametrize("theta", [0.03, 0.06, 0.1, 0.3])
@pytest.mark.parametrize("sigma", [5e-4, 1e-3, 2e-3, 5e-3])
def test_annuity_rule_reaches_past_a_slowly_climbing_rate(k, theta, sigma):
    # with k T < 1 a rate that starts at 0 is still far below the long rate
    # at 60 / r_inf, so the rule must also reach 60 / theta + 1 / k
    cir = CirParams(k=k, theta=theta, sigma=sigma)
    con = ContractParams(c=0.05, m=0.05)
    got = _Workspace(cir, con).annuity(np.zeros(1))[0][0]
    want = annuity_at_zero_betainc(cir, con)
    assert abs(got - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# value function

def test_value_boundary_conditions(primary_solution):
    sol = primary_solution
    assert value(sol, sol.x_star) == pytest.approx(1.0, abs=1e-8)
    assert abs(value_derivative(sol, sol.x_star)) <= 1e-6
    assert value(sol, 0.5 * sol.x_star) == 1.0
    assert value(sol, 0.0) == 1.0
    assert value_derivative(sol, 0.5 * sol.x_star) == 0.0


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    (CirParams(k=0.1, theta=0.03, sigma=0.2), 0.05),    # gamma = 0.15
    (CirParams(k=0.5, theta=0.1, sigma=0.05), 0.12),    # gamma = 40
], ids=["primary", "low_alpha", "gamma_40"])
def test_value_path_matches_mpmath_definition(cir, c):
    # V = A + (1 - A(x*)) e^{lam (x - x*)} U(z) / U(z*), with A from
    # mp.quad of the bond price and mpmath's U
    con = ContractParams(c=c, m=c)
    sol = solve_boundary(cir, con)
    d = sol.consts
    # from next to x* out to the tail probe of cmd_verify
    x_tail = max(50.0 * max(cir.theta, c, sol.x_star), 100.0 * cir.k)
    xs = np.append(sol.x_star * np.array([1.001, 1.1, 2.0, 5.0, 20.0]),
                   x_tail)
    got_v, got_dv = value(sol, xs), value_derivative(sol, xs)
    got_d2v = closed_form._branch(sol, xs)[2]
    with mp.workdps(20):
        al, g = mp.mpf(d.alpha), mp.mpf(d.gamma)
        p, lam = mp.mpf(d.p), mp.mpf(d.lam)
        x_star = mp.mpf(sol.x_star)
        amp = 1 - annuity_mp(cir, con, sol.x_star)[0]
        u_star = mp.hyperu(al, g, p * x_star)
        for x, v, dv, d2v in zip(map(mp.mpf, xs), got_v, got_dv, got_d2v):
            ann, ann_x, ann_xx = annuity_mp(cir, con, x)
            u = mp.hyperu(al, g, p * x)
            w = amp * mp.exp(lam * (x - x_star)) * u / u_star
            want = ann + w
            assert abs(v - want) <= 1e-12 * abs(want), x
            # dV/dx cancels to 0 at x*, and V'' may cancel too: bound both
            # against their terms
            ratio = -al * mp.hyperu(al + 1, g + 1, p * x) / u
            ratio2 = al * (al + 1) * mp.hyperu(al + 2, g + 2, p * x) / u
            terms = [ann_x, w * (lam + p * ratio)]
            assert abs(dv - mp.fsum(terms)) \
                <= 1e-12 * mp.fsum(map(abs, terms)), x
            terms = [ann_xx, w * (lam * lam + 2 * lam * p * ratio
                                  + p * p * ratio2)]
            assert abs(d2v - mp.fsum(terms)) \
                <= 1e-12 * mp.fsum(map(abs, terms)), x


def test_value_path_semantics(primary_solution):
    sol = primary_solution
    c, x_star = sol.contract.c, sol.x_star
    stopped = np.array([0.0, 0.3 * x_star, x_star])
    # the stopped branch is exact, x* included for V and the residual
    assert np.array_equal(value(sol, stopped), np.ones(3))
    assert np.array_equal(value_derivative(sol, stopped[:2]), np.zeros(2))
    assert np.array_equal(ode_residual(sol, stopped), c - stopped)
    # V'(x*) is the continuation branch's slope
    assert value_derivative(sol, x_star) != 0.0
    assert abs(value_derivative(sol, x_star)) <= 1e-6
    # a scalar in gives a float out
    for fn in (value, value_derivative, ode_residual):
        assert type(fn(sol, 2.0 * x_star)) is float
    # mixed, unsorted input keeps its order and matches one-point calls
    xs = np.array([3.0, 0.5, 1.0, 40.0, 1.5, 0.2, 1e3]) * x_star
    for fn, tol in ((value, 1e-14), (value_derivative, 1e-12),
                    (ode_residual, 1e-10)):
        got = fn(sol, xs)
        single = np.array([fn(sol, float(x)) for x in xs])
        np.testing.assert_allclose(got, single, rtol=tol,
                                   atol=tol * c, err_msg=fn.__name__)
        perm = np.argsort(xs)
        assert np.array_equal(fn(sol, xs[perm]), got[perm]), fn.__name__


def test_value_path_calls_the_annuity_kernel_once_per_chunk(monkeypatch):
    sizes = []
    annuity = _Workspace.annuity

    def counted(ws, xs):
        sizes.append(xs.size)
        return annuity(ws, xs)

    residual_scaled = _Workspace.residual_scaled
    residual_calls = []

    def counted_residual(ws, z):
        residual_calls.append(np.size(z))
        return residual_scaled(ws, z)

    monkeypatch.setattr(_Workspace, "annuity", counted)
    monkeypatch.setattr(_Workspace, "residual_scaled", counted_residual)
    sol = solve_boundary(PRIMARY_CIR, CONTRACT)
    # one call for A(0), one per residual (the step-down, then Newton's), and
    # the diagnostics last: one call at x* and the 7 probes
    assert sizes[0] == 1
    assert sizes[1:1 + len(residual_calls)] == residual_calls
    assert len(sizes) == len(residual_calls) + 2
    assert sizes[-1] == 8
    sizes.clear()
    value_curve(sol, sol.x_star, 5.0 * sol.x_star, 101)
    # V at the 100 points past x*, then the residual at the same points, in
    # chunks of at most 64
    assert len(sizes) == 2 * math.ceil(100 / 64)
    assert max(sizes) <= 64 and sum(sizes) == 2 * 100


def test_verify_evaluates_the_branch_twice(monkeypatch, primary_solution):
    # diagnose at x* and the 100 probes, then V at the probes and the tail
    # point
    sizes = []
    branch = closed_form._branch

    def counted(sol, xs):
        sizes.append(xs.size)
        return branch(sol, xs)

    monkeypatch.setattr(closed_form, "_branch", counted)
    config = cli.RunConfig(cir=PRIMARY_CIR, contract=CONTRACT)
    checks = cli._closed_form_checks(config, primary_solution)
    assert sizes == [101, 101]
    assert [ch["status"] for ch in checks] == ["pass"] * 5


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    (CirParams(k=4.4479, theta=0.0037, sigma=0.0135), 0.0056),  # 8.3e-4
], ids=["primary", "alpha_8.3e-4"])
def test_solve_and_value_at_theta_build_u_nodes_once(monkeypatch, cir, c):
    # the step-down's first decade, Newton's iterates, c2, the diagnostics
    # on [x*, 5 x*] and V(theta) all lie in the workspace's solve window
    # [p c/10, 5 p c], so they share the nodes of its one span; the annuity
    # and U's rule share one Gauss-Jacobi unit rule, one dstev call
    builds, eigen = [], []
    nodes, dstev = specfun._LaplaceRule._nodes, specfun.dstev

    def counted(rule, j0, j1):
        builds.append((j0, j1))
        return nodes(rule, j0, j1)

    def counted_dstev(*args):
        eigen.append(args[0].size)
        return dstev(*args)
    monkeypatch.setattr(specfun._LaplaceRule, "_nodes", counted)
    monkeypatch.setattr(specfun, "dstev", counted_dstev)
    sol = solve_boundary(cir, ContractParams(c=c, m=c))
    value(sol, cir.theta)
    assert len(builds) == 1
    assert eigen == [specfun._JACOBI_NODES]


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    (CirParams(k=4.4479, theta=0.0037, sigma=0.0135), 0.0056),  # 8.3e-4
], ids=["primary", "alpha_8.3e-4"])
def test_diagnose_reproduces_the_solve_diagnostics(cir, c):
    sol = solve_boundary(cir, ContractParams(c=c, m=c))
    probes = sol.x_star * closed_form._PROBE_RATIOS
    assert closed_form.diagnose(sol, probes) == sol.diagnostics
    # a probe in the stopped region has no continuation branch to test, and
    # no probe leaves no residual to take
    for bad in (0.5 * sol.x_star, []):
        with pytest.raises(DomainError):
            closed_form.diagnose(sol, bad)


def test_value_rejects_negative_rate(primary_solution):
    with pytest.raises(DomainError):
        value(primary_solution, -0.01)


def test_value_curve_invariants(primary_solution):
    sol = primary_solution
    curve = value_curve(sol, sol.x_star, 5.0 * sol.x_star, 41)
    xs = [p[0] for p in curve.points]
    vs = [p[1] for p in curve.points]
    assert len(curve.points) == 41
    assert xs == sorted(xs)
    assert vs[0] == pytest.approx(1.0, abs=1e-8)
    assert all(0.0 < v <= 1.0 + 1e-12 for v in vs)
    assert all(b < a for a, b in zip(vs, vs[1:]))


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    (CirParams(k=4.4479, theta=0.0037, sigma=0.0135), 0.0056),  # 8.3e-4
], ids=["primary", "alpha_8.3e-4"])
def test_value_does_not_depend_on_call_order(cir, c):
    # the solution's U rule rebuilds its nodes whenever a pass spans other
    # z; V and the ODE residual at theta, 2 x* and 50 theta, on one array
    # and at single points, are bit-identical before and after a curve and
    # a sweep out to x = 1e3, and equal to a fresh solve's
    con = ContractParams(c=c, m=c)
    sol = solve_boundary(cir, con)
    xs = np.array([cir.theta, 2.0 * sol.x_star, 50.0 * cir.theta])

    def probe(s):
        return [fn(s, x) for fn in (value, ode_residual)
                for x in (xs, *xs.tolist())]
    before = probe(sol)
    value_curve(sol, sol.x_star, 5.0 * sol.x_star, 101)
    value(sol, np.geomspace(sol.x_star, 1e3, 300))
    for got in (probe(sol), probe(solve_boundary(cir, con))):
        for g, b in zip(got, before):
            assert np.array_equal(g, b)


def test_value_curve_names_the_bad_argument(primary_solution):
    with pytest.raises(ValidationError) as exc:
        value_curve(primary_solution, 0.5, 0.1, 11)
    assert exc.value.field == "x_min"
    with pytest.raises(ValidationError) as exc:
        value_curve(primary_solution, 0.1, 0.5, 1)
    assert exc.value.field == "points"
    for x_max in (math.inf, math.nan):
        with pytest.raises(ValidationError) as exc:
            value_curve(primary_solution, 0.1, x_max, 11)
        assert exc.value.field == "x_max"
    # a finite window evaluates at any height: V tends to c/x
    x, v, _ = value_curve(primary_solution, 0.1, 2e7, 11).points[-1]
    assert x == 2e7 and v == pytest.approx(CONTRACT.c / x, rel=1e-7)
    with pytest.raises(ValidationError) as exc:
        value_curve(primary_solution, 0.0, 0.1, 2.5)
    assert exc.value.field == "points"


@pytest.mark.parametrize("x", [math.nan, math.inf,
                               np.array([0.02, math.nan]), 2e7,
                               np.array([0.02, 2e7])])
def test_value_rejects_non_finite_rate(primary_solution, x):
    # any finite rate evaluates, 2e7 too, where V is c/x to 1.3e-8 and the
    # ODE residual stays at rounding
    fns = (value, value_derivative, ode_residual, closed_form.diagnose)
    if np.all(np.isfinite(x)):
        v, dv, res, diag = (fn(primary_solution, x) for fn in fns)
        assert np.all(np.isfinite([v, dv, res]))
        assert max(np.max(np.abs(res)), diag.ode_residual_max) \
            <= 1e-14 * CONTRACT.c
        assert np.atleast_1d(v)[-1] == pytest.approx(CONTRACT.c / 2e7,
                                                     rel=2e-8)
        return
    for fn in fns:
        with pytest.raises(DomainError):
            fn(primary_solution, x)


def test_diagnose_at_a_rate_near_the_float_limit(primary_solution):
    # x* and 1e306 (z = 5.7e307) span 308 decades of z: _branch takes them
    # in two passes, and neither overflows z t
    diag = closed_form.diagnose(primary_solution, [1e306])
    assert [measured <= bound for _, measured, bound
            in diag.bounds(CONTRACT.c)] == [True] * 3
    assert diag.ode_residual_max <= 1e-14 * CONTRACT.c


@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    # gamma = 0.10, z* = 6.8e-10: one pass over the probe below would
    # overflow z t
    (CirParams(k=7.04e-4, theta=0.634, sigma=0.094), 7.09e-3),
])
def test_value_on_three_hundred_decades_splits_its_passes(monkeypatch, cir,
                                                          c):
    # 20 rates from 1.001 x* to z = 1e300: every pass spans at most
    # _Z_RATIO, V agrees with one pass per rate, tends to c/x, and the ODE
    # residual stays at rounding
    sol = solve_boundary(cir, ContractParams(c=c, m=c))
    xs = np.geomspace(1.001 * sol.x_star, 1e300 / sol.consts.p, 20)
    ratios = []
    terms = _Workspace.terms

    def counted(ws, zs):
        ratios.append(float(np.max(zs) / np.min(zs)))
        return terms(ws, zs)

    monkeypatch.setattr(_Workspace, "terms", counted)
    v, res = value(sol, xs), ode_residual(sol, xs)
    assert 1 < len(ratios) and max(ratios) <= closed_form._Z_RATIO
    assert v == pytest.approx([value(sol, x) for x in xs], rel=1e-14)
    assert np.all((0.0 < v) & (v <= 1.0))
    assert xs[-1] * v[-1] == pytest.approx(c, rel=1e-13)
    assert np.max(np.abs(res)) <= 1e-12 * c


def test_tail_tracks_first_order_correction(primary_solution):
    # x V - c = k c / x (1 + O(1/x)); at x >= 100 k the first-order term
    # describes the tail to better than 50 percent, out to x = 1e12, where
    # it is 2.5e-13 of c
    sol = primary_solution
    c = sol.contract.c
    k = sol.cir.k
    for x in (25.0, 50.0, 100.0, 1e7, 1e9, 1e12):
        gap = x * value(sol, x) - c
        assert gap == pytest.approx(k * c / x, rel=0.5)


def test_asymptotic_elimination_of_m(primary_solution):
    # at x = 100 theta: e^{lam x} M(px) grows without bound while
    # e^{lam x} U(px) vanishes, so c1 must be 0; both checked via logs
    sol = primary_solution
    d = sol.consts
    x = 100.0 * sol.cir.theta
    z = d.p * x
    log_m_branch = d.lam * x + z + _kummer_m_scaled(d.alpha, d.gamma, z)
    assert log_m_branch > 50.0
    log_u_branch = d.lam * x + float(
        _tricomi_u_raw(d.alpha, d.gamma, np.array([z]))[0][0])
    assert log_u_branch < -5.0
