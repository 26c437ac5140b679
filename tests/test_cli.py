"""CLI tests: output formats, exit codes, determinism, and the structured
error channel.  All runs go through main() in-process with captured stdio."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cirmort import cli
from cirmort.cli import main
from cirmort.closed_form import DiagnosticsWarning
from cirmort.model import CirParams, ContractParams

PRIMARY = ["--k", "0.25", "--theta", "0.06", "--sigma", "0.1", "--c", "0.05"]
FAST_VERIFY = ["--fd-nodes", "400", "--mc-paths", "2000",
               "--mc-dt", "0.02", "--mc-horizon", "60"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve

def test_solve_json_fields(capsys):
    code, out, err = run_cli(capsys, ["solve", *PRIMARY])
    assert code == 0
    assert err == ""
    rep = json.loads(out)
    assert rep["x_star"] == pytest.approx(0.009217280309, rel=1e-8)
    assert rep["x_star"] * rep["constants"]["p"] == pytest.approx(
        rep["z_star"], rel=1e-14)
    assert rep["c1"] == 0.0
    assert rep["constants"]["gamma"] == pytest.approx(3.0, rel=1e-12)
    assert rep["constants"]["s"] == pytest.approx(math.sqrt(0.0825),
                                                  rel=1e-12)
    assert rep["feller_satisfied"] is True
    assert rep["value_scale_m_over_c"] == 1.0
    assert rep["diagnostics"]["pasting_value_error"] <= 1e-8


def test_solve_scales_reporting_by_m_over_c(capsys):
    code, out, _ = run_cli(capsys, ["solve", *PRIMARY, "--m", "0.10"])
    assert code == 0
    rep = json.loads(out)
    assert rep["value_scale_m_over_c"] == 2.0


def test_solve_prints_an_overflowing_c2_as_null(capsys):
    # e^{a z*}/U(z*) leaves float range between c = 150 and c = 200; c2 is
    # then infinite and JSON has no infinity
    code, out, err = run_cli(capsys, ["solve", *PRIMARY[:-1], "200"])
    assert (code, err) == (0, "")
    assert json.loads(out)["c2"] is None
    code, out, _ = run_cli(capsys, ["solve", *PRIMARY[:-1], "150"])
    assert code == 0
    assert '"c2": 1.6805040919352028e+243,' in out


def test_solve_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, ["solve", *PRIMARY])
    _, out2, _ = run_cli(capsys, ["solve", *PRIMARY])
    assert out1 == out2


def test_python_m_cirmort_runs_the_cli(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cirmort", "solve",
                           *PRIMARY], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, out, _ = run_cli(capsys, ["solve", *PRIMARY])
    assert proc.stdout == out


def test_validation_error_exit_2_names_field(capsys):
    code, out, err = run_cli(
        capsys, ["solve", "--k", "-1", "--theta", "0.06", "--sigma", "0.1",
                 "--c", "0.05"])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["field"] == "k"
    # a non-finite MC horizon leaves no step count to simulate
    code, out, err = run_cli(capsys, ["verify", *PRIMARY, "--mc-horizon",
                                      "inf", "--skip", "fd",
                                      "--skip", "shooting"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == "horizon"
    # a negative seed, a non-finite root tolerance, and a sigma whose
    # gamma = 2 k theta / sigma^2 is above the solver's cap
    for argv, field in (
            (["verify", *PRIMARY, "--seed", "-1", "--mc-paths", "100",
              "--skip", "fd", "--skip", "shooting"], "seed"),
            (["solve", *PRIMARY, "--tol-root", "inf"], "tol"),
            (["solve", *PRIMARY, "--tol-root", "nan"], "tol"),
            (["solve", "--k", "0.25", "--theta", "0.06", "--sigma", "1e-160",
              "--c", "0.05"], "sigma")):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == field


def test_options_not_given_take_the_run_config_defaults():
    parser = cli.build_parser()
    config = cli._config_from_args(parser.parse_args(["verify", *PRIMARY]))
    assert config == cli.RunConfig(
        cir=CirParams(k=0.25, theta=0.06, sigma=0.1),
        contract=ContractParams(c=0.05, m=0.05))
    given = cli._config_from_args(parser.parse_args(
        ["compare", *PRIMARY, "--m", "0.1", "--tol-root", "1e-9",
         "--fd-nodes", "300", "--mc-paths", "50", "--mc-dt", "0.1",
         "--mc-horizon", "9", "--seed", "4", "--output", "csv",
         "--skip", "mc", "--skip", "fd"]))
    assert given == dataclasses.replace(
        config, contract=ContractParams(c=0.05, m=0.1), tol_root=1e-9,
        fd_nodes=300, mc_paths=50, mc_dt=0.1, mc_horizon=9.0, seed=4,
        output="csv", skip=frozenset({"mc", "fd"}))
    given = cli._config_from_args(parser.parse_args(
        ["curve", *PRIMARY, "--x-min", "0.01", "--x-max", "0.2",
         "--points", "7"]))
    assert given == dataclasses.replace(config, x_min=0.01, x_max=0.2,
                                        points=7)


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    oracle = ["--tol-root", "--fd-nodes", "--mc-paths", "--mc-dt",
              "--mc-horizon", "--seed", "--skip"]
    want = {"solve": ["--m", "--tol-root"],
            "curve": ["--m", "--tol-root", "--x-min", "--x-max", "--points"],
            "verify": oracle,
            "compare": ["--m", *oracle, "--output"]}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, flags in want.items():
        got = {opt for action in subparsers.choices[name]._actions
               for opt in action.option_strings}
        assert got == {"-h", "--help", "--k", "--theta", "--sigma", "--c",
                       *flags}, name
    # a flag the subcommand does not read is a usage error, not ignored,
    # and so is a prefix of one it reads: flags are spelt in full
    for argv in (["solve", "--seed", "3"], ["curve", "--skip", "mc"],
                 ["verify", "--m", "0.1"], ["compare", "--points", "7"],
                 ["solve", "--tol", "1e-3"], ["verify", "--mc-p", "10"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv[:1], *PRIMARY, *argv[1:]])
        assert exc.value.code == 2, argv
        assert "error: " in (err := capsys.readouterr().err) \
            and argv[1] in err, argv


def test_no_bracket_exit_3(capsys):
    code, out, err = run_cli(
        capsys, ["solve", "--k", "0.1", "--theta", "0.1", "--sigma", "0.05",
                 "--c", "0.03"])
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "NoBracketError"
    assert payload["annuity_at_zero"] <= 1.0


def test_boundary_below_the_rate_floor_exits_4(capsys):
    # A(0) = 2.79 > 1, but x* is near 1e-269
    code, out, err = run_cli(
        capsys, ["solve", "--k", "0.0003874", "--theta", "0.3798",
                 "--sigma", "0.6395", "--c", "0.0009067"])
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "BoundaryBelowFloorError"


def test_only_solve_needs_m_at_z_star(capsys):
    # M's series fails at z* = 3190 here; c2 alone reads M
    argv = ["--k", "3.62e-4", "--theta", "1.208", "--sigma", "4.32e-4",
            "--c", "0.420"]
    code, out, err = run_cli(capsys, ["solve", *argv])
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "ConvergenceError"
    code, out, err = run_cli(capsys, ["curve", *argv, "--points", "3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("0.419205362436,1,")


def test_tol_root_consistency(capsys):
    # the loose tolerance leaves a pasting slope of about 2e-3, above its
    # bound, and the solve says so
    with pytest.warns(DiagnosticsWarning, match="pasting_slope"):
        _, out_loose, _ = run_cli(capsys, ["solve", *PRIMARY,
                                           "--tol-root", "1e-3"])
    _, out_tight, _ = run_cli(capsys, ["solve", *PRIMARY,
                                       "--tol-root", "1e-10"])
    a = json.loads(out_loose)["x_star"]
    b = json.loads(out_tight)["x_star"]
    assert abs(a - b) <= 1e-3 * b


# ---------------------------------------------------------------------------
# curve

def test_curve_csv_invariants(capsys):
    code, out, _ = run_cli(capsys, ["curve", *PRIMARY, "--points", "21"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,v,ode_residual"
    assert len(lines) == 22
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    xs = [r[0] for r in rows]
    vs = [r[1] for r in rows]
    assert xs == sorted(xs)
    assert vs[0] == pytest.approx(1.0, abs=1e-8)
    assert all(b < a for a, b in zip(vs, vs[1:]))
    # the first row sits exactly on the boundary where the reported residual
    # is the (nonzero) stopped-side one; the interior rows solve the ODE
    assert all(abs(r[2]) <= 1e-6 * 0.05 for r in rows[1:])


def test_curve_rejects_bad_window(capsys):
    for window, field in ((["--x-min", "0.5", "--x-max", "0.1"], "x_min"),
                          (["--x-max", "inf"], "x_max"),
                          (["--x-min", "0.01", "--x-max", "nan"], "x_max")):
        code, out, err = run_cli(capsys, ["curve", *PRIMARY, *window])
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == field
    # any finite window above x* evaluates: the annuity has no rate cap
    code, out, err = run_cli(capsys, ["curve", *PRIMARY, "--x-max", "1e8"])
    assert (code, err) == (0, "")
    assert float(out.splitlines()[-1].split(",")[0]) == 1e8


def test_curve_rejects_one_point_after_the_solve(capsys):
    # value_curve checks the window and the point count after the solve, so
    # a set without a boundary exits 3 first
    code, out, err = run_cli(capsys, ["curve", *PRIMARY, "--points", "1"])
    assert (code, out) == (2, "")
    assert json.loads(err)["field"] == "points"
    code, _, err = run_cli(capsys, ["curve", "--k", "0.1", "--theta", "0.1",
                                    "--sigma", "0.05", "--c", "0.03",
                                    "--points", "1"])
    assert code == 3
    assert json.loads(err)["error"] == "NoBracketError"


# ---------------------------------------------------------------------------
# verify

def test_verify_fast_pass(capsys):
    code, out, _ = run_cli(capsys, ["verify", *PRIMARY, *FAST_VERIFY])
    rep = json.loads(out)
    assert code == 0, rep["failed"]
    assert rep["overall"] == "pass"
    names = [ch["name"] for ch in rep["checks"]]
    for want in ("specfun_identities", "smooth_pasting_value", "tail_decay",
                 "shooting_agreement", "fd_boundary", "mc_agreement",
                 "mc_optimality"):
        assert want in names


def test_verify_passes_where_the_tail_probe_is_100_k(capsys):
    # k = 2e5 puts the tail probe max(50 max(theta, c, x*), 100 k) at 2e7,
    # beyond the rate cap of 1e7 that the annuity's t-rule had
    code, out, _ = run_cli(capsys, ["verify", "--k", "2e5", "--theta", "0.03",
                                    "--sigma", "0.2", "--c", "0.08",
                                    "--skip", "mc", "--skip", "fd",
                                    "--skip", "shooting"])
    rep = json.loads(out)
    assert code == 0, rep
    assert rep["overall"] == "pass" and rep["failed"] == []
    statuses = [ch["status"] for ch in rep["checks"]]
    assert statuses.count("pass") == 7
    assert set(statuses) == {"pass", "skipped"}


def test_verify_skip_marks_checks_skipped(capsys):
    code, out, _ = run_cli(capsys, ["verify", *PRIMARY, *FAST_VERIFY,
                                    "--skip", "mc", "--skip", "fd"])
    assert code == 0
    rep = json.loads(out)
    by_name = {ch["name"]: ch for ch in rep["checks"]}
    for name in ("mc_agreement", "mc_optimality", "fd_boundary",
                 "fd_profile"):
        assert by_name[name]["status"] == "skipped"
        assert by_name[name]["measured"] is None
    assert by_name["shooting_agreement"]["status"] == "pass"


def test_verify_detects_corrupted_boundary(capsys, monkeypatch):
    solve = cli.closed_form.solve_boundary

    def shifted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, x_star=1.01 * sol.x_star,
                                   z_star=1.01 * sol.z_star)
    monkeypatch.setattr(cli.closed_form, "solve_boundary", shifted)
    code, out, _ = run_cli(capsys, ["verify", *PRIMARY, "--skip", "mc",
                                    "--skip", "fd", "--skip", "shooting"])
    assert code == 5
    rep = json.loads(out)
    assert rep["overall"] == "fail"
    # a 1% boundary shift leaves the continuation branch at x* about 9e-4
    # from 1 and its slope about 2e-2 from 0, so both pasting checks trip
    assert "smooth_pasting_value" in rep["failed"]
    assert "smooth_pasting_slope" in rep["failed"]


def test_wronskian_grid_fails_on_nan(capsys, monkeypatch):
    # a NaN on one (alpha, gamma) pair must fail the check, not be folded
    # away by the maximum over pairs; verify prints it as JSON null
    exact = cli.specfun.log_wronskian

    def log_wronskian(alpha, gamma, zs):
        return np.where(alpha == 3.0, np.nan, exact(alpha, gamma, zs))
    monkeypatch.setattr(cli.specfun, "log_wronskian", log_wronskian)
    checks = {ch["name"]: ch for ch in cli._specfun_checks()}
    assert checks["wronskian_grid"]["status"] == "fail"
    assert checks["specfun_identities"]["status"] == "pass"
    code, out, _ = run_cli(capsys, ["verify", *PRIMARY, "--skip", "mc",
                                    "--skip", "fd", "--skip", "shooting"])
    assert code == 5
    rep = json.loads(out)
    check = {ch["name"]: ch for ch in rep["checks"]}["wronskian_grid"]
    assert check["measured"] is None and check["margin"] is None
    assert rep["failed"] == ["wronskian_grid"]


def test_verify_determinism_byte_identical(capsys):
    argv = ["verify", *PRIMARY, *FAST_VERIFY]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_mc_checks_start_above_a_boundary_over_theta(capsys):
    # x* = 0.0763 > theta: paths started at theta would stop at once and
    # pass with a tolerance of 0, so they start at 2 x* instead
    argv = ["--k", "0.5", "--theta", "0.03", "--sigma", "0.05",
            "--c", "0.08", "--mc-paths", "2000",
            "--skip", "fd", "--skip", "shooting"]
    code, out, _ = run_cli(capsys, ["verify", *argv])
    assert code == 0
    by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    for name in ("mc_agreement", "mc_optimality"):
        assert by_name[name]["tolerance"] > 0.0
        assert by_name[name]["status"] == "pass"
    code, out, _ = run_cli(capsys, ["compare", *argv])
    assert code == 0
    mc_row = json.loads(out)["rows"][-1]
    assert mc_row["method"] == "monte_carlo"
    assert mc_row["value_at_theta"] is None
    assert 0.0 < mc_row["tolerance"] and mc_row["status"] == "PASS"


def test_verify_and_compare_share_one_mc_estimate(capsys):
    # one common-path run per command: verify's mc_agreement and compare's
    # MC row read the same middle report; likewise each oracle's compare row
    # reports that oracle's first verify check
    argv = [*PRIMARY, "--mc-paths", "2000"]
    code, out, _ = run_cli(capsys, ["verify", *argv])
    assert code == 0
    checks = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    # the oracle table names exactly the checks its functions return, so
    # --skip marks the checks a run would produce
    assert list(checks)[-5:] == [name for _, _, names, _ in cli._ORACLES
                                 for name in names]
    code, out, _ = run_cli(capsys, ["compare", *argv])
    assert code == 0
    rows = {r["method"]: r for r in json.loads(out)["rows"]}
    for method, name in (("shooting", "shooting_agreement"),
                         ("finite_difference", "fd_boundary"),
                         ("monte_carlo", "mc_agreement")):
        check, row = checks[name], rows[method]
        assert (row["gap"], row["tolerance"], row["status"]) \
            == (check["measured"], check["tolerance"],
                check["status"].upper()), method
    assert checks["mc_agreement"]["tolerance"] > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Dirichlet value c/x_max at x_max = 50 theta "
                          "leaves a grid-independent error that the "
                          "Richardson bound of fd_profile cannot see")
def test_verify_fd_profile_at_high_volatility(capsys):
    # 2.15e-4 from the closed form at x = 0.8 x_max, against a bound of
    # 8.3e-5, at 1000, 2000 and 4000 nodes alike; shooting agrees with the
    # closed form here
    code, out, _ = run_cli(capsys, ["verify", "--k", "0.1", "--theta", "0.03",
                                    "--sigma", "0.2", "--c", "0.05",
                                    "--skip", "mc", "--skip", "shooting"])
    by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    assert by_name["fd_boundary"]["status"] == "pass"
    assert by_name["fd_profile"]["status"] == "pass", by_name["fd_profile"]
    assert code == 0


# ---------------------------------------------------------------------------
# compare

def test_compare_shares_verify_minimum_fd_nodes(capsys):
    # compare runs verify's FD check, half-size grid included
    argv = [*PRIMARY, "--fd-nodes", "10", "--skip", "mc",
            "--skip", "shooting"]
    results = [run_cli(capsys, [cmd, *argv]) for cmd in ("verify", "compare")]
    assert [code for code, _, _ in results] == [2, 2]
    assert json.loads(results[0][2]) == json.loads(results[1][2])
    assert json.loads(results[1][2])["field"] == "n_nodes"

def test_compare_json_rows(capsys):
    code, out, _ = run_cli(capsys, ["compare", *PRIMARY, *FAST_VERIFY])
    assert code == 0
    rows = json.loads(out)["rows"]
    methods = [r["method"] for r in rows]
    assert methods == ["closed_form", "shooting", "finite_difference",
                       "monte_carlo"]
    assert rows[0]["status"] == "REF"
    assert all(r["status"] == "PASS" for r in rows[1:]), rows


def test_compare_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["compare", *PRIMARY, *FAST_VERIFY,
                                    "--skip", "mc", "--skip", "fd",
                                    "--output", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,boundary,value_at_theta,gap,tolerance,status"
    assert len(lines) == 3
    assert lines[1].startswith("closed_form,")
    assert lines[2].startswith("shooting,")
    assert lines[2].endswith(",PASS")


def test_compare_scales_values_by_m_over_c(capsys):
    # gap, tolerance and status stay verify's checks of the m = c solution
    argv = [*PRIMARY, *FAST_VERIFY, "--skip", "mc"]
    runs = []
    for m in ([], ["--m", "0.10"]):
        code, out, _ = run_cli(capsys, ["compare", *argv, *m])
        assert code == 0
        runs.append({r["method"]: r for r in json.loads(out)["rows"]})
    at_c, at_m = runs
    assert list(at_m) == ["closed_form", "shooting", "finite_difference"]
    for method in ("closed_form", "finite_difference"):
        assert at_m[method]["value_at_theta"] \
            == 2.0 * at_c[method]["value_at_theta"]
    assert at_m["shooting"]["value_at_theta"] is None
    for method, row in at_m.items():
        for key in ("boundary", "gap", "tolerance", "status"):
            assert row[key] == at_c[method][key], (method, key)


def test_compare_runs_mc_above_a_boundary_over_theta(capsys):
    # x* = 0.0763 > theta: MC used to start at theta and divide by its zero
    # standard error
    code = main(["compare", "--k", "0.5", "--theta", "0.03", "--sigma", "0.05",
                 "--c", "0.08", "--mc-paths", "2000",
                 "--skip", "fd", "--skip", "shooting"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["method"] for r in rows] == ["closed_form", "monte_carlo"]
    assert rows[-1]["status"] == "PASS"
