"""Command-line interface: solve, curve, verify, compare.

Results go to stdout (JSON for reports, CSV for curves); structured errors go
to stderr as JSON.  Exit codes: 0 success, 2 validation error, 3 no boundary,
4 convergence or other numerical failure, 5 verification failure.

Numbers are printed with 17 significant digits in JSON and 12 in CSV so
identical configurations reproduce byte-identical output; JSON prints NaN
and infinities as null.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import closed_form, oracles, specfun
from .errors import CirMortError, NoBracketError, ValidationError
from .model import CirParams, ContractParams, derive_constants

__all__ = ["RunConfig", "main", "cmd_solve", "cmd_curve", "cmd_verify",
           "cmd_compare"]

@dataclass(frozen=True)
class RunConfig:
    cir: CirParams
    contract: ContractParams            # user's (c, m); solver runs at m = c
    tol_root: float = 1e-10
    x_min: float | None = None
    x_max: float | None = None
    points: int = 101
    fd_nodes: int = 2000
    mc_paths: int = 20000
    mc_dt: float = 1.0 / 252.0
    mc_horizon: float = 400.0
    seed: int = 0
    output: str = "json"
    skip: frozenset = frozenset()

    @property
    def value_scale(self) -> float:
        # general m is reported by rescaling the m = c solution
        return self.contract.m / self.contract.c

    @property
    def solver_contract(self) -> ContractParams:
        return ContractParams(c=self.contract.c, m=self.contract.c)


# ---------------------------------------------------------------------------
# deterministic serialization

def _jfmt(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        items = ", ".join(f'{_jfmt(str(k))}: {_jfmt(v)}'
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jfmt(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print_json(obj, stream=None) -> None:
    print(_jfmt(obj), file=stream or sys.stdout)


def _csv_num(x: float) -> str:
    return format(float(x), ".12g")


def _error_json(exc: Exception) -> None:
    # plus the error's own fields, ValidationError.field and the like
    _print_json({"error": type(exc).__name__, "message": str(exc),
                 **vars(exc)}, stream=sys.stderr)


# ---------------------------------------------------------------------------
# commands

def _solve(config: RunConfig):
    return closed_form.solve_boundary(
        config.cir, config.solver_contract, tol=config.tol_root)


def cmd_solve(config: RunConfig) -> int:
    solution = _solve(config)
    consts = solution.consts
    report = {
        "x_star": solution.x_star,
        "z_star": solution.z_star,
        "c2": closed_form.c2(solution),
        # identically 0: e^{lam x} M grows, so M cannot appear in a
        # decaying solution
        "c1": 0.0,
        "constants": {
            "s": consts.s, "lambda": consts.lam, "p": consts.p,
            "alpha": consts.alpha, "gamma": consts.gamma,
            "a_exp": consts.a_exp,
        },
        "feller_satisfied": config.cir.feller_satisfied,
        "value_scale_m_over_c": config.value_scale,
        "diagnostics": asdict(solution.diagnostics),
    }
    _print_json(report)
    return 0


def cmd_curve(config: RunConfig) -> int:
    solution = _solve(config)
    x_min = config.x_min if config.x_min is not None else solution.x_star
    x_max = config.x_max if config.x_max is not None else 5.0 * solution.x_star
    curve = closed_form.value_curve(solution, x_min, x_max, config.points)
    scale = config.value_scale
    sys.stdout.write("x,v,ode_residual\n")
    for x, v, res in curve.points:
        sys.stdout.write(
            f"{_csv_num(x)},{_csv_num(scale * v)},{_csv_num(scale * res)}\n")
    return 0


def _check(name: str, measured: float, tolerance: float) -> dict:
    return {
        "name": name,
        "measured": measured,
        "tolerance": tolerance,
        "margin": tolerance - measured,
        "status": "pass" if measured <= tolerance else "fail",
    }


def _skipped(name: str) -> dict:
    return {"name": name, "measured": None, "tolerance": None,
            "margin": None, "status": "skipped"}


def _specfun_identity_error() -> float:
    """M(1, 2, 1) = e - 1, U(1/2, 3/2, 4) = 1/2, M(0.7, 2.3, 0) = 1 and
    ln Gamma(1/2) = ln(pi)/2, through the functions the solver calls."""
    log_u = float(specfun._tricomi_u_raw(0.5, 1.5, np.array([4.0]))[0][0])
    errs = [
        abs(math.exp(specfun._kummer_m_scaled(1.0, 2.0, 1.0) + 1.0)
            - (math.e - 1.0)) / (math.e - 1.0),
        abs(math.exp(log_u) - 0.5) / 0.5,
        abs(math.exp(specfun._kummer_m_scaled(0.7, 2.3, 0.0)) - 1.0),
        abs(math.lgamma(0.5) - 0.5 * math.log(math.pi))
        / (0.5 * math.log(math.pi)),
    ]
    return float(np.max(errs))          # np.max keeps a NaN; max() drops it


def _wronskian_grid_error() -> float:
    """Worst |W_num / W - 1| with W_num = M U (U'/U - M'/M), in log form,
    the denominator of c2's 2x2 solve, against the closed-form W."""
    pairs = [(0.2, 0.5), (0.2, 3.0), (0.5, 1.5), (1.0, 1.0), (1.0, 4.0),
             (2.5, 2.0), (3.0, 8.0), (5.0, 5.5), (8.0, 24.0)]
    zs = np.geomspace(0.1, 50.0, 25)
    errs = []
    for alpha, gamma in pairs:
        log_u, u_ratio, _ = specfun._tricomi_u_raw(alpha, gamma, zs)
        log_msc, m_ratio = specfun._log_msc_and_ratio(alpha, gamma, zs)
        log_w = log_msc + zs + log_u + np.log(m_ratio - u_ratio)
        errs.append(np.abs(np.expm1(
            log_w - specfun.log_wronskian(alpha, gamma, zs))))
    return float(np.max(errs))


def _specfun_checks() -> list:
    return [_check("specfun_identities", _specfun_identity_error(), 1e-10),
            _check("wronskian_grid", _wronskian_grid_error(), 1e-8)]


def _closed_form_checks(config: RunConfig, solution) -> list:
    """Pasting, ODE residual, monotonicity and tail of the solved V."""
    cir, c, x_star = config.cir, config.contract.c, solution.x_star
    xs = np.geomspace(1.001 * x_star,
                      10.0 * max(cir.theta, c, x_star), 100)
    # not solution.diagnostics: a boundary altered after the solve must fail
    names = ("smooth_pasting_value", "smooth_pasting_slope", "ode_residual")
    bounds = closed_form.diagnose(solution, xs).bounds(c)
    checks = [_check(n, m, b) for n, (_, m, b) in zip(names, bounds)]
    # Tail: x V(x) -> c with first-order correction k c / x.  The probe sits
    # at x >= 100 k so the higher-order terms (relative size ~2k/x per
    # order) are negligible and 1.5x the first-order term is a sound bound.
    x_tail = max(50.0 * max(cir.theta, c, x_star), 100.0 * cir.k)
    vs = closed_form.value(solution, np.append(xs, x_tail))
    vs, v_tail = vs[:-1], vs[-1]
    violations = float(np.sum(~((vs > 0) & (vs <= 1.0 + 1e-12))))
    violations += float(np.sum(np.diff(vs) >= 0))
    return checks + [
        _check("monotonic_bounds", violations, 0.5),
        _check("tail_decay", abs(x_tail * v_tail - c) / c,
               1.5 * cir.k / x_tail),
    ]


# Each oracle's check function returns (checks, boundary, value at theta or
# None); `compare` prints the boundary, the value and the first check.

def _shooting_checks(config: RunConfig, solution) -> tuple:
    report = oracles.shoot_solve(config.cir, config.solver_contract,
                                 tol=1e-8)
    gap = abs(report.r_star - solution.x_star) / solution.x_star
    return [_check("shooting_agreement", gap, 1e-6)], report.r_star, None


def _fd_checks(config: RunConfig, solution) -> tuple:
    cir, x_star = config.cir, solution.x_star
    fd_hi, fd_lo = (
        oracles.fd_steady_state(cir, config.solver_contract, nodes)
        for nodes in (config.fd_nodes, config.fd_nodes // 2))
    x_max, dx = fd_hi.grid[-1], fd_hi.grid[1] - fd_hi.grid[0]
    h_fd = fd_hi.boundary
    probes = np.linspace(1.05 * x_star, 0.8 * x_max, 20)
    v_cf = closed_form.value(solution, probes)
    v_hi = np.interp(probes, fd_hi.grid, fd_hi.v_steady)
    v_lo = np.interp(probes, fd_lo.grid, fd_lo.v_steady)
    richardson = max(float(np.max(np.abs(v_hi - v_lo))) / 3.0, 1e-9)
    checks = [_check("fd_boundary", abs(h_fd - x_star) / dx, 2.0),
              _check("fd_profile", float(np.max(np.abs(v_hi - v_cf))),
                     5.0 * richardson)]
    return checks, h_fd, float(np.interp(cir.theta, fd_hi.grid,
                                         fd_hi.v_steady))


def _mc_checks(config: RunConfig, solution) -> tuple:
    """One common-path run at 0.9 x*, x* and 1.1 x* from x0 = theta, or
    2 x* when x* >= theta: paths from x0 <= x* stop at once, with zero SE.
    The value at theta is None when x0 is not theta."""
    cir, x_star = config.cir, solution.x_star
    x0 = cir.theta if cir.theta > x_star else 2.0 * x_star
    vm, v0, vp = oracles.mc_optimality_probe(
        cir, config.solver_contract, x0, x_star, 0.1 * x_star,
        config.mc_paths, config.mc_dt, config.mc_horizon, seed=config.seed)
    gap = abs(v0.value_estimate - closed_form.value(solution, x0))
    worst_beat = float(np.max([v0.value_estimate - vm.value_estimate,
                               v0.value_estimate - vp.value_estimate]))
    combined = 3.0 * float(np.max([math.hypot(v0.std_error, vm.std_error),
                                   math.hypot(v0.std_error, vp.std_error)]))
    checks = [_check("mc_agreement", gap, 3.0 * v0.std_error),
              _check("mc_optimality", worst_beat, combined)]
    return checks, x_star, v0.value_estimate if x0 == cir.theta else None


# (--skip name, compare method, check names, check function)
_ORACLES = (
    ("shooting", "shooting", ("shooting_agreement",), _shooting_checks),
    ("fd", "finite_difference", ("fd_boundary", "fd_profile"), _fd_checks),
    ("mc", "monte_carlo", ("mc_agreement", "mc_optimality"), _mc_checks),
)


def cmd_verify(config: RunConfig) -> int:
    checks = _specfun_checks()
    solution = _solve(config)
    checks += _closed_form_checks(config, solution)
    for skip, _, names, run in _ORACLES:
        checks += ([_skipped(name) for name in names]
                   if skip in config.skip else run(config, solution)[0])
    failed = [ch["name"] for ch in checks if ch["status"] == "fail"]
    _print_json({"checks": checks, "failed": failed,
                 "overall": "fail" if failed else "pass"})
    return 5 if failed else 0


def cmd_compare(config: RunConfig) -> int:
    solution = _solve(config)
    rows = [{"method": "closed_form", "boundary": solution.x_star,
             "value_at_theta": closed_form.value(solution, config.cir.theta),
             "gap": 0.0, "tolerance": 0.0, "status": "REF"}]
    for skip, method, _, run in _ORACLES:
        if skip in config.skip:
            continue
        checks, boundary, v_theta = run(config, solution)
        first = checks[0]
        rows.append({"method": method, "boundary": boundary,
                     "value_at_theta": v_theta, "gap": first["measured"],
                     "tolerance": first["tolerance"],
                     "status": first["status"].upper()})
    # scaled by m/c like curve's values; gap and tolerance stay verify's
    for r in rows:
        if r["value_at_theta"] is not None:
            r["value_at_theta"] *= config.value_scale

    if config.output == "csv":
        sys.stdout.write("method,boundary,value_at_theta,gap,tolerance,"
                         "status\n")
        for r in rows:
            vt = "" if r["value_at_theta"] is None \
                else _csv_num(r["value_at_theta"])
            sys.stdout.write(
                f'{r["method"]},{_csv_num(r["boundary"])},{vt},'
                f'{_csv_num(r["gap"])},{_csv_num(r["tolerance"])},'
                f'{r["status"]}\n')
    else:
        _print_json({"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# The optional flags; below, each subcommand's function and the flags it
# reads besides the four parameters.  The parser leaves every option not
# given off its namespace, so RunConfig holds the defaults.
_OPTIONS = {
    "--m": {"type": float, "help": "payment rate; defaults to c (values "
                                   "are reported scaled by m/c)"},
    "--tol-root": {"type": float}, "--x-min": {"type": float},
    "--x-max": {"type": float}, "--points": {"type": int},
    "--fd-nodes": {"type": int}, "--mc-paths": {"type": int},
    "--mc-dt": {"type": float}, "--mc-horizon": {"type": float},
    "--seed": {"type": int}, "--output": {"choices": ("json", "csv")},
    "--skip": {"action": "append", "choices": ("mc", "fd", "shooting")},
}
_VERIFY_FLAGS = ("--tol-root", "--fd-nodes", "--mc-paths", "--mc-dt",
                 "--mc-horizon", "--seed", "--skip")
_COMMANDS = {
    "solve": (cmd_solve, ("--m", "--tol-root")),
    "curve": (cmd_curve, ("--m", "--tol-root", "--x-min", "--x-max",
                          "--points")),
    "verify": (cmd_verify, _VERIFY_FLAGS),
    "compare": (cmd_compare, ("--m", *_VERIFY_FLAGS, "--output")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirmort", allow_abbrev=False,
        description="Steady-state mortgage prepayment boundary solver "
                    "under a CIR short rate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        for flag in ("--k", "--theta", "--sigma", "--c"):
            p.add_argument(flag, type=float, required=True)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _config_from_args(args) -> RunConfig:
    opts = {k: v for k, v in vars(args).items() if k != "command"}
    cir = CirParams(*(opts.pop(name) for name in ("k", "theta", "sigma")))
    c = opts.pop("c")
    contract = ContractParams(c=c, m=opts.pop("m", c))
    skip = frozenset(opts.pop("skip", ()))
    return RunConfig(cir=cir, contract=contract, skip=skip, **opts)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command][0](config)
    except ValidationError as exc:
        _error_json(exc)
        return 2
    except NoBracketError as exc:
        _error_json(exc)
        return 3
    except CirMortError as exc:
        _error_json(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
