"""Quick test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Runs each workload for a few operations with every output check on, checks
that the no-boundary draws of the solve list have no boundary by shooting
either, and runs the command end to end, traced and untraced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

wl = run.import_package()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload,n_ops", [("solve", 8), ("curve", 2),
                                            ("verify", 1)])
def test_operations_pass_their_checks(workload, n_ops):
    make, op, check, _, _ = wl.WORKLOADS[workload]
    sets = make(0, 16)
    for pset in sets[:n_ops]:
        assert check(pset, op(pset)) == [], pset


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert wl.solve_sets(3, 16) == wl.solve_sets(3, 16)
    assert wl.solve_sets(3, 16) != wl.solve_sets(4, 16)
    assert wl.verify_sets(3) == wl.verify_sets(3)
    assert all(c >= theta for _, theta, _, c in wl.curve_sets(3, 64))


def test_no_boundary_draws_have_no_boundary_by_shooting():
    # the sets of the traced solve run at seed 0
    _, _, _, round_size, trace_rounds = wl.WORKLOADS["solve"]
    sets = wl.solve_sets(0, round_size * trace_rounds)
    none = [p for p in sets if wl.solve_op(p) is None]
    assert 0 < len(none) < len(sets)
    for pset in none:
        assert wl.check_solve_by_shooting(pset, None) == [], pset


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untimed_run_prints_every_end_to_end_metric():
    res = _result(_run(["--workload", "solve", "--seed", "5",
                        "--seconds", "1", "--trace", "0"]))
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 16
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    runs = [_result(_run(["--workload", "curve", "--seed", "2",
                          "--seconds", "1", "--trace", "1"]))
            for _ in range(2)]
    for res in runs:
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] == "count/op"} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["closed_form.value_points"] > 0
    assert counts[0]["specfun.u_points"] > 0
    assert counts[0]["oracles.fd_steps"] == 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "solve", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
