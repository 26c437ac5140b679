"""Benchmark of the cirmort solver, its value curve and its oracle suite.

    python3 perfbench/run.py --workload {solve,curve,verify} --seed N \
        --seconds S --trace {0,1}

A closed loop: one caller runs one operation at a time, each on its own
seeded parameter set, in whole rounds until S seconds of operations have been
timed.  Every output is checked.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.  Result
and trace files go to perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# Set-up time counts from here: numpy, scipy and cirmort are imported later,
# in import_package().
_T_START = time.perf_counter()

# One BLAS thread, whatever the environment says: the benchmark is a single
# caller and this fixes the thread count from run to run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# cold set-ups per run (this process and fresh ones); set-up time is their
# median
SETUP_REPEATS = 3
# sets drawn per run; a run that uses them all stops at that round
LIST_LENGTH = 4096
# sets of each solve round cross-checked against the shooting oracle, of
# either outcome
SHOOT_SAMPLE = 2
# a fresh set-up that takes longer than this has hung
SUBPROCESS_TIMEOUT_S = 150


def import_package():
    """Import cirmort from this checkout's sources, never from elsewhere."""
    if not (SRC / "cirmort" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cirmort sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cirmort
    if Path(cirmort.__file__).resolve().parent != SRC / "cirmort":
        sys.exit(f"perfbench: cirmort imported from {cirmort.__file__}, "
                 f"not from {SRC}")
    from cirmort.model import FellerWarning
    # part of the drawn box violates the Feller condition on purpose
    warnings.simplefilter("ignore", FellerWarning)
    import workloads
    return workloads


def set_up(workload: str, seed: int):
    """Import, make the inputs, and run one untimed warm-up operation (so
    lazy imports are paid here).  Returns (workloads module, sets)."""
    wl = import_package()
    make, op, check, _, _ = wl.WORKLOADS[workload]
    sets = make(seed, LIST_LENGTH)
    problems = check(wl.WARMUP_SET, op(wl.WARMUP_SET))
    if problems:
        sys.exit(f"perfbench: warm-up {workload} operation is wrong: "
                 f"{problems}")
    return wl, sets


def fresh_set_up_s(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up in a fresh process failed:\n"
                 f"{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_rounds(wl, workload, sets, stop, tracer=None):
    """Run whole rounds of operations until stop(rounds done, timed seconds)
    says so.  Returns op times, failures, problems and round-0 results."""
    _, op, check, round_size, _ = wl.WORKLOADS[workload]
    times, failures, problems, first_round = [], [], [], []
    timed = 0.0
    rounds = 0
    while not stop(rounds, timed) and (rounds + 1) * round_size <= len(sets):
        for pset in sets[rounds * round_size:(rounds + 1) * round_size]:
            if tracer is not None:
                tracer.op = len(times) + len(failures)
            t0 = time.perf_counter()
            try:
                result = op(pset)
            except Exception:
                # a failed operation is counted and reported; the run goes on
                timed += time.perf_counter() - t0
                failures.append(f"{pset}: {traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t0
            timed += dt
            times.append(dt)
            problems += [f"{pset}: {p}" for p in check(pset, result)]
            if rounds == 0:
                first_round.append((pset, result))
        rounds += 1
    return times, timed, failures, problems, first_round


def shooting_sample(wl, first_round) -> list:
    """Cross-check the first solved and no-boundary sets of round 0 against
    the shooting oracle."""
    solved = [(p, r) for p, r in first_round if r is not None][:SHOOT_SAMPLE]
    none = [(p, r) for p, r in first_round if r is None][:SHOOT_SAMPLE]
    problems = []
    for pset, result in solved + none:
        problems += [f"{pset}: {p}"
                     for p in wl.check_solve_by_shooting(pset, result)]
    return problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "curve", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl, sets = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    trace_rounds = wl.WORKLOADS[args.workload][4]
    tracer = None
    if args.trace:
        import tracing
        from cirmort import cli, closed_form, oracles, specfun
        tracer = tracing.Tracer()
        tracer.install({"cli": cli, "closed_form": closed_form,
                        "specfun": specfun, "oracles": oracles, "bench": wl})
        try:
            times, timed, failures, problems, first = run_rounds(
                wl, args.workload, sets,
                lambda rounds, _: rounds >= trace_rounds, tracer)
        finally:
            tracer.uninstall()
    else:
        setups = [setup_s] + [fresh_set_up_s(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        times, timed, failures, problems, first = run_rounds(
            wl, args.workload, sets,
            lambda _, timed_s: timed_s >= args.seconds)
    if args.workload == "solve":
        problems += shooting_sample(wl, first)

    attempted = len(times) + len(failures)
    if not times:
        sys.exit(f"perfbench: none of {attempted} operations completed:\n"
                 + "\n".join(failures))
    if tracer is not None:
        metrics = tracer.metrics(attempted)
    else:
        metrics = {
            "ops_per_s": {"value": len(times) / timed, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "metrics": metrics,
              "op_times_s": times, "failures": failures,
              "problems": problems}
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    else:
        record["setup_runs_s"] = setups
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in problems:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {len(failures)}, "
          f"{'correct' if not problems else 'NOT CORRECT'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
