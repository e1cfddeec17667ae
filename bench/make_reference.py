"""Recompute the refined-grid reference of the depth_law workload.

    python3 bench/make_reference.py

Draws the workload's environments from a fixed seed, keeping for each N
the first one whose depth law carries mass through every epoch (so the
recursion does all N - 1 epochs of work), then solves each on grids much
finer than the program's defaults: the optimal table on
16001 lead points and the depth law at 8001 cells under that table.
Writes bench/reference.json and prints the default-grid errors against
it: |dkappa| of the default table, the TV of the default table's depth
law, and the TV of the default cell count alone (reference table).  Takes about a minute and 1.6 GB of memory.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from bench.checks import reference_errors, tv  # noqa: E402
from bench.inputs import random_env  # noqa: E402
from bench.workloads import REFERENCE  # noqa: E402
from standout.depthlaw import depth_distribution  # noqa: E402
from standout.policy import optimal_table  # noqa: E402

ENV_SEED = 5
DEPTH_LAW_N = (3, 8, 20)
GRID_POINTS = 16001
CELLS = 8001


def main():
    rng = np.random.default_rng(ENV_SEED)
    entries = []
    for N in DEPTH_LAW_N:
        env = random_env(rng, N)
        while len(depth_distribution(env, optimal_table(env)).survival_grids) < N - 1:
            env = random_env(rng, N)
        table = optimal_table(env, grid_points=GRID_POINTS)
        pmf = depth_distribution(env, table, cells=CELLS).pmf
        entries.append({"env": env.to_dict(), "grid_points": GRID_POINTS,
                        "cells": CELLS, "kappa": table.kappa.tolist(),
                        "reservation": table.reservation.tolist(),
                        "kappa_inf": table.kappa_inf, "pmf": pmf.tolist()})
        default = optimal_table(env)
        kappa_err, tv_all = reference_errors(
            default.kappa, depth_distribution(env, default).pmf, entries[-1])
        tv_cells = tv(depth_distribution(env, table).pmf, pmf)
        print(f"N={N}: default grids vs reference: |dkappa| {kappa_err:.3g}, "
              f"TV {tv_all:.3g}; TV of the default cells alone {tv_cells:.3g}")
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": ENV_SEED, "environments": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
