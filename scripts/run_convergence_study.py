#!/usr/bin/env python3
"""Full testbed convergence study for all built-in schemes.

Writes one CSV per scheme into results/ and prints the fitted orders.
"""

import os
import pathlib
import sys

# One BLAS thread, set before numpy loads, so the CSV bytes do not depend on
# the core count (the variable list of perfbench/run.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from exprk.convergence import NORMS, ExperimentSpec, render_csv, run_experiment, write_csv

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    for scheme in ("euler", "rk2", "rk3paper"):
        report = run_experiment(ExperimentSpec(scheme=scheme))
        path = OUT_DIR / f"convergence_{scheme}.csv"
        write_csv(render_csv(report), path)
        orders = " ".join(f"{nm}={report.fitted_order[nm]:.3f}" for nm in NORMS)
        print(f"{scheme:<9} {orders}  -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
