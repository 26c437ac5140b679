"""The 2401-set corpus: every set either solves within its diagnostic
bounds below the coupon or raises NoBracketError, and it raises exactly
where the incomplete-beta form of A(0) is at most 1.

The sets are the 81 grid sets, 256 scrambled Sobol sets over the grid's box
(the benchmark's solve_sets(1, 256)), 2000 log-uniform seed-2024 draws over
the README's supported box, and the 64 stored verify sets."""

import json
import runpy
import warnings
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from cirmort.closed_form import DiagnosticsWarning, solve_boundary
from cirmort.errors import NoBracketError
from cirmort.model import CirParams, ContractParams
from closed_form_reference import annuity_at_zero_betainc

ROOT = Path(__file__).resolve().parents[1]
GRID = runpy.run_path(str(ROOT / "scripts" / "solve_grid.py"))["GRID"]
# the grid's (k, theta, sigma, c) box, drawn log-uniformly
GRID_BOX = ((0.1, 0.5), (0.03, 0.1), (0.05, 0.2), (0.03, 0.08))
# the README's supported box, as natural logs of its corners
README_LO = np.log([0.01, 0.003, 0.005, 0.005])
README_HI = np.log([5.0, 0.3, 0.5, 0.2])


def corpus() -> list:
    sobol = qmc.Sobol(4, scramble=True, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2024)
    verify = json.loads((ROOT / "perfbench" / "verify_sets.json").read_text())
    return (GRID
            + [tuple(float(lo * (hi / lo) ** x)
                     for x, (lo, hi) in zip(u, GRID_BOX))
               for u in sobol.random(256)]
            + [tuple(np.exp(README_LO + (README_HI - README_LO)
                            * rng.random(4)).tolist()) for _ in range(2000)]
            + [tuple(entry["set"]) for entry in verify["sets"]])


def test_corpus_solves_exactly_where_the_betainc_annuity_at_zero_exceeds_one():
    sets = corpus()
    assert len(sets) == 2401
    solved = no_bracket = 0
    for k, theta, sigma, c in sets:
        cir = CirParams(k=k, theta=theta, sigma=sigma)
        con = ContractParams(c=c, m=c)
        exists = annuity_at_zero_betainc(cir, con) > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticsWarning)
            try:
                x_star = solve_boundary(cir, con).x_star
            except NoBracketError:
                assert not exists, (k, theta, sigma, c)
                no_bracket += 1
                continue
        assert exists and x_star < c, (k, theta, sigma, c)
        solved += 1
    assert (solved, no_bracket) == (1561, 840)
