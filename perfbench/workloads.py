"""Seeded inputs, the operation of each workload, and its output checks.

A parameter set is a tuple (k, theta, sigma, c); the contract always has
m = c.  Every check returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from cirmort import cli, closed_form, oracles
from cirmort.errors import NoBracketError
from cirmort.model import CirParams, ContractParams

HERE = Path(__file__).resolve().parent
VERIFY_SETS_FILE = HERE / "verify_sets.json"

# Acceptance-grid box, drawn log-uniformly.
K_BOX = (0.1, 0.5)
THETA_BOX = (0.03, 0.1)
SIGMA_BOX = (0.05, 0.2)
C_BOX = (0.03, 0.08)

# Warm-up set for every workload.  It has a boundary below theta, so its
# verify runs every oracle, and that verify is among the cheapest in the box,
# which keeps set-up short.  A continuous draw never lands on it, so it is
# outside every measured list.
WARMUP_SET = (0.5, 0.04, 0.08, 0.05)

# Below the CLI default of 20,000 so that the FD and MC oracles take
# comparable shares of a verify operation.
VERIFY_MC_PATHS = 2000

VERIFY_CHECKS = (
    "specfun_identities", "wronskian_grid", "smooth_pasting_value",
    "smooth_pasting_slope", "ode_residual", "monotonic_bounds",
    "tail_decay", "shooting_agreement", "fd_boundary", "fd_profile",
    "mc_agreement", "mc_optimality",
)

CURVE_POINTS = 101


def params(pset):
    k, theta, sigma, c = pset
    return CirParams(k=k, theta=theta, sigma=sigma), ContractParams(c=c, m=c)


def _log_uniform(u, box):
    lo, hi = box
    return lo * (hi / lo) ** u


def _sobol(seed: int, dim: int, n: int) -> np.ndarray:
    # every aligned block of 2^m scrambled Sobol points is stratified over
    # the box, so a round of 2^m sets covers the box the same way whatever
    # the seed
    engine = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(seed))
    return engine.random(n)


def solve_sets(seed: int, n: int) -> list:
    """n sets from the whole box; about a third have no boundary."""
    u = _sobol(seed, 4, n)
    return [(float(_log_uniform(a, K_BOX)), float(_log_uniform(b, THETA_BOX)),
             float(_log_uniform(s, SIGMA_BOX)), float(_log_uniform(cc, C_BOX)))
            for a, b, s, cc in u]


def curve_sets(seed: int, n: int) -> list:
    """n sets from the box with c >= theta: theta is drawn log-uniformly
    between the lower edge of its box and c."""
    u = _sobol(seed, 4, n)
    out = []
    for a, s, cc, b in u:
        c = float(_log_uniform(cc, C_BOX))
        theta = float(_log_uniform(b, (THETA_BOX[0], c)))
        out.append((float(_log_uniform(a, K_BOX)), theta,
                    float(_log_uniform(s, SIGMA_BOX)), c))
    return out


VERIFY_STRATA = 5


def verify_sets(seed: int, n: int | None = None) -> list:
    """The stored verify list (see verify_sets.py) in a seeded order.

    Verify operations differ in cost by more than 2x from set to set, and a
    run holds only a few of them.  So the stored list is cut into strata by
    the operation time measured when the list was made, and each round of
    VERIFY_STRATA operations takes one set from every stratum.
    """
    stored = sorted(json.loads(VERIFY_SETS_FILE.read_text())["sets"],
                    key=lambda entry: entry["op_s"])
    rng = np.random.default_rng(seed)
    strata = [rng.permutation(stratum) for stratum in
              np.array_split(np.arange(len(stored)), VERIFY_STRATA)]
    rounds = min(len(stratum) for stratum in strata)
    return [tuple(stored[stratum[r]]["set"])
            for r in range(rounds) for stratum in strata][:n]


# ---------------------------------------------------------------------------
# operations: what is timed

def solve_op(pset):
    """The product call: boundary with diagnostics, then V(theta).  Returns
    None when the set has no boundary."""
    cir, contract = params(pset)
    try:
        sol = closed_form.solve_boundary(cir, contract)
    except NoBracketError:
        return None
    return sol, closed_form.value(sol, cir.theta)


def _cli_argv(command: str, pset) -> list:
    k, theta, sigma, c = pset
    return [command, "--k", repr(k), "--theta", repr(theta),
            "--sigma", repr(sigma), "--c", repr(c)]


class OperationFailed(Exception):
    """A CLI operation exited with a nonzero code."""

    def __init__(self, code: int, stdout: str, stderr: str):
        super().__init__(f"exit {code}: {stderr[-300:]}{stdout[-300:]}")
        self.code = code
        self.stdout = stdout


def _run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(code, out.getvalue(), err.getvalue())
    return out.getvalue()


def curve_op(pset):
    return _run_cli(_cli_argv("curve", pset)
                    + ["--points", str(CURVE_POINTS)])


def verify_op(pset):
    return _run_cli(_cli_argv("verify", pset)
                    + ["--mc-paths", str(VERIFY_MC_PATHS)])


# ---------------------------------------------------------------------------
# checks: not timed

def check_solve(pset, result) -> list:
    if result is None:
        return []
    sol, v_theta = result
    c = pset[3]
    d = sol.diagnostics
    problems = []
    if not abs(d.pasting_value_error) <= 1e-8:
        problems.append(f"|V(x*)-1| = {d.pasting_value_error!r}")
    if not abs(d.pasting_slope) <= 1e-6:
        problems.append(f"|V'(x*)| = {d.pasting_slope!r}")
    if not d.ode_residual_max <= 1e-6 * c:
        problems.append(f"ode_residual_max = {d.ode_residual_max!r}")
    # where the borrower prepays, the variational inequality needs c - x >= 0
    if not 0.0 < sol.x_star < c:
        problems.append(f"x* = {sol.x_star!r} outside (0, c)")
    if not 0.0 < v_theta <= 1.0:
        problems.append(f"V(theta) = {v_theta!r} outside (0, 1]")
    return problems


def check_solve_by_shooting(pset, result) -> list:
    """Cross-check one solve against the shooting oracle: the same x*, or
    no boundary by shooting either."""
    cir, contract = params(pset)
    if result is None:
        try:
            rep = oracles.shoot_solve(cir, contract, tol=1e-8)
        except NoBracketError:
            return []
        return [f"no closed-form boundary, shooting finds {rep.r_star!r}"]
    x_star = result[0].x_star
    rep = oracles.shoot_solve(cir, contract, tol=1e-8)
    if not abs(rep.r_star - x_star) <= 1e-6 * x_star:
        return [f"x* = {x_star!r}, shooting {rep.r_star!r}"]
    return []


# Five-point stencils on the printed curve.  The CSV carries 12 significant
# digits, so V'' picks up rounding of about 64/12 * 5e-13 / h^2; with at least
# 100 intervals across [x*, 5x*] the truncation error is far smaller.
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
CURVE_FD_TOL = 1e-4          # times c


def curve_fd_residual(pset, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Residual of the steady ODE at interior curve points, by the
    benchmark's own finite differences of the printed V."""
    k, theta, sigma, c = pset
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    win = np.lib.stride_tricks.sliding_window_view(vs, 5)
    v1 = (win @ _D1) / h
    v2 = (win @ _D2) / h ** 2
    x = xs[2:-2]
    return 0.5 * sigma ** 2 * x * v2 + k * (theta - x) * v1 - x * vs[2:-2] + c


def check_curve(pset, output: str) -> list:
    c = pset[3]
    lines = output.splitlines()
    if not lines or lines[0] != "x,v,ode_residual":
        return ["missing CSV header"]
    rows = np.array([[float(f) for f in line.split(",")]
                     for line in lines[1:]])
    if rows.shape != (CURVE_POINTS, 3):
        return [f"expected {CURVE_POINTS} rows of 3, got {rows.shape}"]
    xs, vs, res = rows.T
    problems = []
    if not abs(xs[-1] / xs[0] - 5.0) <= 1e-9:
        problems.append(f"window [{xs[0]!r}, {xs[-1]!r}] is not [x*, 5x*]")
    if vs[0] != 1.0:
        problems.append(f"V(x*) = {vs[0]!r}")
    if not np.all((vs > 0.0) & (vs <= 1.0)):
        problems.append("V outside (0, 1]")
    if not np.all(np.diff(vs) < 0.0):
        problems.append("V not strictly decreasing")
    # the first row is x*, where the CSV reports the stopped branch's
    # residual c - x*; the variational inequality needs it >= 0
    if not (xs[0] < c and abs(res[0] - (c - xs[0])) <= 1e-9 * c):
        problems.append(f"residual at x* is {res[0]!r}, not c - x* >= 0")
    worst = float(np.max(np.abs(res[1:])))
    if not worst <= 1e-6 * c:
        problems.append(f"printed ode_residual {worst!r} > 1e-6 c")
    own = float(np.max(np.abs(curve_fd_residual(pset, xs, vs))))
    if not own <= CURVE_FD_TOL * c:
        problems.append(f"recomputed ODE residual {own!r} > "
                        f"{CURVE_FD_TOL} c")
    return problems


def check_verify(pset, output: str) -> list:
    report = json.loads(output)
    checks = {ch["name"]: ch for ch in report["checks"]}
    problems = []
    missing = [name for name in VERIFY_CHECKS if name not in checks]
    if missing:
        problems.append(f"checks missing: {missing}")
    not_passed = [name for name, ch in checks.items()
                  if ch["status"] != "pass"]
    if not_passed:
        problems.append(f"checks not passed: {not_passed}")
    if report["overall"] != "pass":
        problems.append(f"overall {report['overall']!r}")
    # a threshold policy whose paths all start in the stopped region has
    # zero standard error: the MC checks then simulated nothing
    for name in ("mc_agreement", "mc_optimality"):
        if name in checks and not (checks[name]["tolerance"] or 0.0) > 0.0:
            problems.append(f"{name} simulated no path")
    return problems


# name -> (make the measured list, operation, check, sets per round,
#          rounds in the traced run)
WORKLOADS = {
    "solve": (solve_sets, solve_op, check_solve, 16, 2),
    "curve": (curve_sets, curve_op, check_curve, 8, 1),
    "verify": (verify_sets, verify_op, check_verify, VERIFY_STRATA, 1),
}
