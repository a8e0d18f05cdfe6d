#!/usr/bin/env python3
"""Run the three analytical probes and write their CSV traces to results/.

Covers the semigroup smoothing quantity for three fractional exponents,
relative boundedness of advection by fractional diffusion powers, and the
Fourier partial-sum boundedness study for both coefficient rules.
"""

import os
import pathlib
import sys

# One BLAS thread, set before numpy loads, so the CSV bytes do not depend on
# the core count (the variable list of perfbench/run.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from exprk.convergence import ExperimentSpec
from exprk.discretize import build_grid, build_operators
from exprk.probes import (DEFAULT_FOURIER_LENGTHS, DEFAULT_RELBOUND_SIZES,
                          DEFAULT_SMOOTHING_TIMES, fourier_beta_probe,
                          relative_boundedness_probe, sine_coefficients_initial_data,
                          smoothing_probe, worst_case_coefficients)

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def emit(report, filename):
    path = OUT_DIR / filename
    report.to_csv(path)
    verdict = "bounded" if report.bounded else "unbounded"
    print(f"{report.label:<34} max={report.max_value:.6g} {verdict:<9} -> {path}")


def reports():
    """(file name, ProbeReport) of every probe run that results/ holds."""
    ops = build_operators(build_grid(ExperimentSpec.n_inner), ExperimentSpec.nu)
    for gamma in (0.25, 0.5, 0.75):
        yield f"smoothing_g{gamma:g}.csv", smoothing_probe(ops, gamma, DEFAULT_SMOOTHING_TIMES)

    for gamma in (1.0, 0.5, 0.1):
        yield (f"relbound_g{gamma:g}.csv",
               relative_boundedness_probe(gamma, DEFAULT_RELBOUND_SIZES))

    rules = (("u0", sine_coefficients_initial_data),
             ("1k", worst_case_coefficients))
    for beta, norm in ((-0.01, "l1"), (0.24, "l2"), (0.49, "linf")):
        for tag, rule in rules:
            yield (f"fourier_b{beta:g}_{norm}_{tag}.csv",
                   fourier_beta_probe(rule, beta, DEFAULT_FOURIER_LENGTHS, norm))


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    for filename, report in reports():
        emit(report, filename)
    return 0


if __name__ == "__main__":
    sys.exit(main())
