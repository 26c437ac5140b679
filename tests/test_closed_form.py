"""Unit tests for the analytical solution: source term, kernel, particular
solution, annuity, boundary residual, and the solved value function."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from cirmort import closed_form
from cirmort.closed_form import (DiagnosticsWarning, _Workspace, ode_residual,
                                 solve_boundary, value, value_curve,
                                 value_derivative)
from cirmort.errors import DomainError, NoBracketError, ValidationError
from cirmort.model import CirParams, ContractParams, derive_constants
from cirmort.numerics import find_root_bracketed
from cirmort.oracles import shoot_solve
from cirmort.specfun import _kummer_m_scaled, tricomi_u  # noqa: the scaled
# helper is internal but is the only overflow-free route for the
# asymptotic-elimination check below
from closed_form_reference import (annuity_mp, annuity_residual_mp,
                                   boundary_residual,
                                   boundary_residual_ratio_form,
                                   kernel_weight, particular_solution,
                                   source_term)

UNIT_CIR = CirParams(k=1.0, theta=1.0, sigma=1.0)
PRIMARY_CIR = CirParams(k=0.25, theta=0.06, sigma=0.1)
CONTRACT = ContractParams(c=0.05, m=0.05)


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

@pytest.mark.parametrize("cir,c", [
    (PRIMARY_CIR, 0.05),
    (CirParams(k=0.1, theta=0.03, sigma=0.2), 0.05),     # alpha = 0.05
    (CirParams(k=0.5, theta=0.1, sigma=0.05), 0.05),     # gamma = 40
    (CirParams(k=0.21605, theta=0.014419, sigma=0.49818), 0.037467),
    (CirParams(k=0.024337, theta=0.021019, sigma=0.168964), 0.023025),
], ids=["primary", "low_alpha", "gamma_40", "gamma_0.025", "gamma_0.036"])
def test_annuity_matches_bond_price_quadrature(cir, c):
    con = ContractParams(c=c, m=c)
    ws = _Workspace(cir, con)
    d = ws.consts
    # from the first scan point to the tail probe of cmd_verify
    xs = np.array([1e-4 * cir.theta, 1.0 / d.p, cir.theta,
                   10.0 * max(cir.theta, c), 1400.0 / d.p,
                   max(50.0 * max(cir.theta, c), 100.0 * cir.k)])
    got, got_x = ws.annuity(xs)
    for x, v, v_x in zip(xs, got, got_x):
        want, want_x = annuity_mp(cir, con, x, dps=25)
        assert abs(v - want) <= 1e-13 * want, x
        assert abs(v_x - want_x) <= 1e-13 * abs(want_x), x


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
    # from the first scan point to the tail probe of cmd_verify
    zs = np.array([1e-4 * d.p * cir.theta, 1.0, d.p * cir.theta,
                   10.0 * d.p * max(cir.theta, CONTRACT.c), 1400.0])
    ann, ann_x = ws.annuity(zs / d.p)
    ratio = ws.log_u_and_ratio(zs)[1]
    for z, v, v_x, r in zip(zs, ann, ann_x, ratio):
        got = closed_form._msc_iu(ws, float(z), float(v), float(v_x),
                                  float(r))
        want = _msc_iu_nested(d, CONTRACT, z)
        assert abs(got - want) <= 1e-12 * want, z


def test_residual_on_an_array_matches_single_points(primary_consts):
    ws = _Workspace(PRIMARY_CIR, CONTRACT)
    grid = np.geomspace(1e-4 * primary_consts.p * PRIMARY_CIR.theta,
                        10.0 * primary_consts.p * PRIMARY_CIR.theta, 64)
    single = [ws.residual_scaled(float(z)) for z in grid]
    np.testing.assert_allclose(ws.residual_scaled(grid), single,
                               rtol=1e-12, atol=1e-12)


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

    r = find_root_bracketed(f, 0.5 * z_star, 2.0 * z_star, tol=1e-12)
    assert abs(r - z_star) <= 1e-8 * z_star


def test_solve_primary_fixture(primary_solution):
    sol = primary_solution
    assert sol.x_star == pytest.approx(sol.z_star / sol.consts.p, rel=1e-14)
    assert sol.c2 > 0
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
        solve_boundary(PRIMARY_CIR, CONTRACT)
    # a 1000x coarser V'' stencil leaves an ODE residual of about 1e-5
    monkeypatch.setattr(closed_form, "_STEP_SCALE", 1e-2)
    msg = missed()
    assert "ode_residual_max" in msg and "pasting" not in msg
    monkeypatch.undo()
    monkeypatch.setattr(closed_form, "PASTING_SLOPE_TOL", 0.0)
    msg = missed()
    assert "pasting_slope" in msg and "ode_residual_max" not in msg


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
    # at large gamma U leaves float range at the small-z end of the scan;
    # ln U does not
    con = ContractParams(c=c, m=c)
    sol = solve_boundary(cir, con)
    rep = shoot_solve(cir, con, tol=1e-8)
    assert abs(sol.x_star - rep.r_star) <= 1e-6 * rep.r_star


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


def test_box_scan_solves_within_bounds_or_has_no_bracket():
    # the first 400 draws of the README box's seed-2024 scan, without the
    # shooting cross-check: 8 of them have M(z*) beyond float range
    rng = np.random.default_rng(2024)
    lo = np.log([0.01, 0.003, 0.005, 0.005])
    hi = np.log([5.0, 0.3, 0.5, 0.2])
    solved = 0
    for _ in range(400):
        k, theta, sigma, c = np.exp(lo + (hi - lo) * rng.random(4)).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticsWarning)
            try:
                solve_boundary(CirParams(k=k, theta=theta, sigma=sigma),
                               ContractParams(c=c, m=c))
            except NoBracketError:
                continue
        solved += 1
    assert solved > 0


@pytest.mark.parametrize("cir,c", [
    # gamma = 0.0043, alpha = 0.0021 and A(x*) of about 59: without the
    # small-alpha step of U the boundary sits 3.3e-6 below this root
    (CirParams(k=0.013318, theta=0.011423, sigma=0.265309), 0.045874),
    # the two small-gamma sets of the shooting test above
    (CirParams(k=0.024337, theta=0.021019, sigma=0.168964), 0.023025),
    (CirParams(k=0.21605, theta=0.014419, sigma=0.49818), 0.037467),
], ids=["gamma_0.0043", "gamma_0.036", "gamma_0.025"])
def test_annuity_residual_changes_sign_across_the_small_alpha_root(cir, c):
    con = ContractParams(c=c, m=c)
    x_star = solve_boundary(cir, con).x_star
    lo = annuity_residual_mp(cir, con, x_star * (1.0 - 1e-6))
    hi = annuity_residual_mp(cir, con, x_star * (1.0 + 1e-6))
    assert lo * hi < 0


def test_no_interior_boundary_regime_raises_no_bracket():
    # high theta relative to c: continuation value stays below one
    # everywhere, so the residual never changes sign
    cir = CirParams(k=0.1, theta=0.1, sigma=0.05)
    con = ContractParams(c=0.03, m=0.03)
    with pytest.raises(NoBracketError) as exc:
        solve_boundary(cir, con)
    assert len(exc.value.scan_points) == len(exc.value.scan_values)
    assert len(exc.value.scan_points) > 0


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
    with mp.workdps(30):
        al, g = mp.mpf(d.alpha), mp.mpf(d.gamma)
        p, lam = mp.mpf(d.p), mp.mpf(d.lam)
        x_star = mp.mpf(sol.x_star)
        amp = 1 - annuity_mp(cir, con, sol.x_star)[0]
        u_star = mp.hyperu(al, g, p * x_star)
        for x, v, dv in zip(map(mp.mpf, xs), got_v, got_dv):
            ann, ann_x = annuity_mp(cir, con, x)
            w = amp * mp.exp(lam * (x - x_star)) * mp.hyperu(al, g, p * x) \
                / u_star
            want = ann + w
            assert abs(v - want) <= 1e-12 * abs(want), x
            # dV/dx cancels to 0 at x*: bound it against its terms
            ratio = -al * mp.hyperu(al + 1, g + 1, p * x) / mp.hyperu(
                al, g, p * x)
            terms = [ann_x, w * (lam + p * ratio)]
            assert abs(dv - mp.fsum(terms)) \
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
    # one call per residual (the scan, then Brent's), one for A at x*, and
    # the diagnostics last: one call at x*, one for the 7 probes' 21 stencil
    # points
    assert sizes[:len(residual_calls)] == residual_calls
    assert len(sizes) == len(residual_calls) + 3
    assert sizes[-3:] == [1, 1, 21]
    sizes.clear()
    value_curve(sol, sol.x_star, 5.0 * sol.x_star, 101)
    # V at the 100 points past x* and the residual at their 300 stencil
    # points, in chunks of at most 64
    assert len(sizes) == math.ceil(100 / 64) + math.ceil(300 / 64)
    assert max(sizes) <= 64 and sum(sizes) == 100 + 300


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


def test_value_curve_names_the_bad_argument(primary_solution):
    with pytest.raises(ValidationError) as exc:
        value_curve(primary_solution, 0.5, 0.1, 11)
    assert exc.value.field == "x_lo"
    with pytest.raises(ValidationError) as exc:
        value_curve(primary_solution, 0.1, 0.5, 1)
    assert exc.value.field == "n"
    for x_hi in (math.inf, math.nan):
        with pytest.raises(ValidationError) as exc:
            value_curve(primary_solution, 0.1, x_hi, 11)
        assert exc.value.field == "x_hi"


@pytest.mark.parametrize("x", [math.nan, math.inf,
                               np.array([0.02, math.nan])])
def test_value_rejects_non_finite_rate(primary_solution, x):
    for fn in (value, value_derivative, ode_residual):
        with pytest.raises(DomainError):
            fn(primary_solution, x)


def test_tail_tracks_first_order_correction(primary_solution):
    # x V - c = k c / x (1 + O(1/x)); at x >= 100 k the first-order term
    # describes the tail to better than 50 percent
    sol = primary_solution
    c = sol.contract.c
    k = sol.cir.k
    for x in (25.0, 50.0, 100.0):
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
    from cirmort.specfun import HypergeometricParams
    log_u_branch = d.lam * x + math.log(
        tricomi_u(HypergeometricParams(d.alpha, d.gamma), z))
    assert log_u_branch < -5.0


@pytest.fixture(scope="module")
def primary_solution():
    return solve_boundary(PRIMARY_CIR, CONTRACT)
