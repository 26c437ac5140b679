"""Regenerate, or re-check, the stored parameter sets of the verify workload.

    python3 perfbench/verify_sets.py           # draw, check, write the list
    python3 perfbench/verify_sets.py --check   # re-check the stored list

Candidates are drawn as for the curve workload (log-uniform in the
acceptance-grid box, c >= theta) from a fixed seed.  A candidate is kept when
it has a boundary with x* < theta, so that both MC checks of `cirmort verify`
(which start their paths at x0 = theta) simulate paths, and when `cirmort
verify --mc-paths 2000` passes on it.  Every rejected candidate is written to
the file with its reason; those that fail `verify` name the failed checks.
Each kept set also stores how long its verify operation took, which the
benchmark uses to cut the list into cost strata, so regenerate on an
otherwise idle host.
"""

import argparse
import json
import sys
import time

import run

GENERATOR_SEED = 20240901
N_SETS = 64
MAX_CANDIDATES = 256


def screen(wl, pset):
    """(x*, reason for rejection or None, seconds the verify operation
    took)."""
    cir, contract = wl.params(pset)
    try:
        x_star = wl.closed_form.solve_boundary(cir, contract).x_star
    except wl.NoBracketError:
        return None, "no boundary", 0.0
    if not x_star < cir.theta:
        return (x_star, "x* >= theta: the MC checks would simulate nothing",
                0.0)
    t0 = time.perf_counter()
    try:
        problems = wl.check_verify(pset, wl.verify_op(pset))
    except wl.OperationFailed as exc:
        if exc.code != 5:
            return x_star, str(exc), 0.0
        # exit 5: the report names the checks that failed
        problems = [f"{ch['name']} measured {ch['measured']:.3g} > "
                    f"tolerance {ch['tolerance']:.3g}"
                    for ch in json.loads(exc.stdout)["checks"]
                    if ch["status"] == "fail"]
    op_s = time.perf_counter() - t0
    if problems:
        return x_star, "verify: " + "; ".join(problems), op_s
    return x_star, None, op_s


def regenerate(wl) -> int:
    kept, rejected = [], []
    for pset in wl.curve_sets(GENERATOR_SEED, MAX_CANDIDATES):
        x_star, reason, op_s = screen(wl, pset)
        print(f"{pset} x*={x_star} {reason or 'kept'} ({op_s:.1f} s)",
              flush=True)
        if reason is None:
            kept.append({"set": list(pset), "x_star": x_star,
                         "op_s": round(op_s, 2)})
        else:
            rejected.append({"set": list(pset), "x_star": x_star,
                             "reason": reason})
        if len(kept) == N_SETS:
            break
    wl.VERIFY_SETS_FILE.write_text(json.dumps({
        "made_by": "python3 perfbench/verify_sets.py",
        "generator_seed": GENERATOR_SEED,
        "mc_paths": wl.VERIFY_MC_PATHS,
        "sets": kept,
        "rejected": rejected,
    }, indent=1) + "\n")
    print(f"kept {len(kept)}, rejected {len(rejected)}")
    return 0 if len(kept) == N_SETS else 1


def check(wl) -> int:
    stored = json.loads(wl.VERIFY_SETS_FILE.read_text())["sets"]
    bad = 0
    for entry in stored:
        pset = tuple(entry["set"])
        x_star, reason, _ = screen(wl, pset)
        if reason is None and not abs(x_star - entry["x_star"]) <= \
                1e-12 * entry["x_star"]:
            reason = f"x* = {x_star!r}, stored {entry['x_star']!r}"
        print(f"{pset} {reason or 'ok'}", flush=True)
        bad += reason is not None
    print(f"{len(stored) - bad} of {len(stored)} stored sets pass")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-check the stored list instead of "
                             "regenerating it")
    args = parser.parse_args(argv)
    wl = run.import_package()
    return check(wl) if args.check else regenerate(wl)


if __name__ == "__main__":
    sys.exit(main())
