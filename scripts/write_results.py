#!/usr/bin/env python3
"""Write every file under results/ by its `exprk` run, as listed in RESULTS.

Each run takes the CLI's default for every setting its arguments leave out. Exits 1,
naming the file, when a run exits 2 or leaves no file; an unbounded verdict exits 1
from `exprk` but still writes its file, so the exit code alone cannot tell the two apart.
"""

import os
import pathlib
import sys

# One BLAS thread, set before numpy loads, so the CSV bytes do not depend on
# the core count (the variable list of perfbench/run.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from exprk.cli import EXIT_USAGE, main as exprk  # noqa: E402 - after the BLAS pin

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
# {file under results/: the exprk arguments that write it}, 15 entries
RESULTS = {name: args.split() for name, args in {
    **{f"convergence_{s}.csv": f"convergence --scheme {s}" for s in ("euler", "rk2", "rk3paper")},
    **{f"smoothing_g{g}.csv": f"probe smoothing --gamma {g}" for g in ("0.25", "0.5", "0.75")},
    **{f"relbound_g{g}.csv": f"probe relbound --gamma {g}" for g in ("1", "0.5", "0.1")},
    **{f"fourier_b{b}_{m}_{tag}.csv": f"probe fourier --beta {b} --norm {m} --coeffs {c}"
       for b, m in (("-0.01", "l1"), ("0.24", "l2"), ("0.49", "linf"))
       for tag, c in (("u0", "u0"), ("1k", "1/k"))},
}.items()}

if __name__ == "__main__":
    OUT_DIR.mkdir(exist_ok=True)
    for name, argv in RESULTS.items():
        path = OUT_DIR / name
        path.unlink(missing_ok=True)  # so a failed run leaves no file behind
        if exprk([*argv, "--out", str(path)]) == EXIT_USAGE or not path.is_file():
            sys.exit(f"error: `exprk {' '.join(argv)}` did not write results/{name}")
