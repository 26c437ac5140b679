"""Cross-check the closed-form boundary against the independent oracles.

Usage:
    python scripts/compare_methods.py --k 0.25 --theta 0.06 --sigma 0.1 \
        --c 0.05 [--mc-paths 100000] [--skip mc] [--output csv]

A thin wrapper over the library's `compare` subcommand: runs the analytical
solver, the shooting oracle, the finite-difference obstacle solver and
(unless skipped) the Monte Carlo valuer on the same parameters, and prints
one row per method with its boundary, value at theta and agreement margin.
Every `cirmort compare` option is accepted; the parameters default to the
primary fixture and Monte Carlo to 100,000 paths.
"""

import sys

from cirmort.cli import main as cli_main

DEFAULTS = ["--k", "0.25", "--theta", "0.06", "--sigma", "0.1",
            "--c", "0.05", "--mc-paths", "100000"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    return cli_main(["compare", *DEFAULTS, *argv])


if __name__ == "__main__":
    sys.exit(main())
