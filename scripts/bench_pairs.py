"""Run 10 alternating perfbench pairs on two checkouts, add them to BENCH_<n>.json.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR --out FILE
        --label TEXT

Each DIR is a whole checkout with its own perfbench/ and src/, for example
one made by `git archive`.  The script adds one series to FILE (made if it
does not exist): for every workload of BENCHMARK.json (read from the
parent), 10 pairs, pair i on seed s0 + i, where s0 is 1 for the first
series and one past the last seed already in FILE otherwise, the parent
first on even pairs and the change first on odd ones, each run for
BENCHMARK.json's run_seconds.  The series holds the label, the host, and
per workload the seeds, the operations attempted and failed, and for every
end-to-end metric each side's median, quartiles and runs, and how many
pairs the change won (ties count for neither).

The perfbench rule for a claimed gain is that the change wins at least 9 of
10 pairs and the gap between the medians exceeds the parent's IQR.  Every
metric of every series states whether the rule holds, and "all_pairs"
states it again on the runs of every series in FILE pooled, with "at least
9 of 10" read as at least 0.9 of the pairs, so that no series is left out.
The file is rewritten after every pair, so an interrupted series keeps the
pairs it finished.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

SIDES = ("parent", "change")
PAIRS = 10
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One untraced perfbench run; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(values: dict, metric: dict) -> dict:
    """Each side's median and quartiles of one metric's runs, the change's
    wins, and whether the gain rule holds."""
    row = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"]}
    for side in SIDES:
        q1, med, q3 = (statistics.quantiles(values[side], n=4)
                       if len(values[side]) > 1 else values[side] * 3)
        row[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                     "runs": values[side]}
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = len(values["parent"])
    row["change_wins"] = sum(sign * (c - p) > 0.0 for p, c in
                             zip(values["parent"], values["change"]))
    row["gain_rule_met"] = (
        row["change_wins"] >= WIN_SHARE * pairs
        and sign * (row["change"]["median"] - row["parent"]["median"])
        > row["parent"]["iqr"])
    return row


def all_pairs(series: list, metrics: list) -> dict:
    """The gain rule on the runs of every series pooled, per workload."""
    out = {}
    for workload in series[-1]["workloads"]:
        entries = [s["workloads"][workload] for s in series
                   if workload in s["workloads"]]
        out[workload] = {"pairs": sum(e["pairs"] for e in entries),
                         "metrics": {}}
        for metric in metrics:
            rows = [e["metrics"][metric["name"]] for e in entries]
            pooled = {side: [v for r in rows for v in r[side]["runs"]]
                      for side in SIDES}
            row = compare(pooled, metric)
            for side in SIDES:
                del row[side]["runs"]
            out[workload]["metrics"][metric["name"]] = row
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True,
                        help="what the change checkout holds")
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    report = (json.loads(args.out.read_text()) if args.out.exists()
              else {"made_by": "python scripts/bench_pairs.py", "series": []})
    seed0 = 1 + max((seed for s in report["series"]
                     for w in s["workloads"].values() for seed in w["seeds"]),
                    default=0)
    seeds = [seed0 + i for i in range(PAIRS)]
    series = {
        "label": args.label,
        "run_seconds": bench["run_seconds"],
        "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
        "workloads": {},
    }
    report["series"].append(series)
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], workload, seed,
                                           bench["run_seconds"]))
            series["workloads"][workload] = {
                "pairs": i + 1, "seeds": seeds[:i + 1],
                "first": ["parent" if j % 2 == 0 else "change"
                          for j in range(i + 1)],
                **{f"{side}_attempted": sum(r["attempted"] for r in runs[side])
                   for side in SIDES},
                **{f"{side}_failed": sum(r["failed"] for r in runs[side])
                   for side in SIDES},
                **{f"{side}_correct": all(r["correct"] for r in runs[side])
                   for side in SIDES},
                "metrics": {m["name"]: compare(
                    {side: [r["metrics"][m["name"]]["value"]
                            for r in runs[side]] for side in SIDES}, m)
                    for m in bench["end_to_end"]},
            }
            report["all_pairs"] = all_pairs(report["series"],
                                            bench["end_to_end"])
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            print(f"{workload} pair {i + 1}/{PAIRS} done", flush=True)


if __name__ == "__main__":
    main()
