"""Sweep the boundary solver over a parameter grid and print a summary table.

Usage:
    python scripts/solve_grid.py [--csv out.csv]

For each (k, theta, sigma, c) combination the script reports the prepayment
boundary x*, the value at the long-run mean V(theta), and the smooth-pasting
diagnostics; parameter sets with no interior boundary are marked as such.
"""

import argparse
import csv
import itertools
import sys
import time
import warnings

from cirmort.closed_form import solve_boundary, value
from cirmort.errors import NoBracketError
from cirmort.model import CirParams, ContractParams, FellerWarning

KS = (0.1, 0.25, 0.5)
THETAS = (0.03, 0.06, 0.1)
SIGMAS = (0.05, 0.1, 0.2)
COUPONS = (0.03, 0.05, 0.08)
# the 81 (k, theta, sigma, c) sets, also the acceptance tests' grid
GRID = list(itertools.product(KS, THETAS, SIGMAS, COUPONS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", default=None,
                        help="also write the table to this CSV file")
    args = parser.parse_args(argv)

    rows = []
    t0 = time.monotonic()
    warnings.simplefilter("ignore", FellerWarning)
    for k, theta, sigma, c in GRID:
        cir = CirParams(k=k, theta=theta, sigma=sigma)
        con = ContractParams(c=c, m=c)
        try:
            sol = solve_boundary(cir, con)
        except NoBracketError:
            rows.append((k, theta, sigma, c, None, None, None))
            continue
        rows.append((k, theta, sigma, c, sol.x_star,
                     value(sol, theta),
                     sol.diagnostics.pasting_value_error))
    elapsed = time.monotonic() - t0

    header = ("k", "theta", "sigma", "c", "x_star", "v_at_theta",
              "pasting_err")
    print(("{:>6} {:>6} {:>6} {:>5}  {:>12} {:>11} {:>11}").format(*header))
    for k, theta, sigma, c, xs, vt, pe in rows:
        if xs is None:
            print(f"{k:6.2f} {theta:6.3f} {sigma:6.3f} {c:5.2f}  "
                  f"{'no boundary':>12} {'-':>11} {'-':>11}")
        else:
            print(f"{k:6.2f} {theta:6.3f} {sigma:6.3f} {c:5.2f}  "
                  f"{xs:12.8f} {vt:11.8f} {pe:11.2e}")
    solved = sum(1 for r in rows if r[4] is not None)
    print(f"\nsolved {solved}/{len(rows)} parameter sets in {elapsed:.1f} s",
          file=sys.stderr)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if v is None else v for v in row])
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
