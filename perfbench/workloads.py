"""The three benchmark workloads and the correctness check of every operation.

A workload is a list of operations. One pass runs each operation once, in
order, and the next operation starts only after the previous one returned
(a closed loop with one client). Every operation calls the public API of
exprk through module attributes, so the tracer in spans.py can wrap them.

Only `check-order --seed` sees the benchmark seed; every other input is
fixed by the paper's testbed.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import exprk.cli
from exprk import convergence, discretize, probes, stepping, tableaus

PAPER_SCHEMES = ("euler", "rk2", "rk3paper")

SMOOTHING_GAMMAS = (0.25, 0.5, 0.75)
SMOOTHING_TIMES = tuple(2.0 ** -k for k in range(12, -1, -1))
RELBOUND_GAMMAS = (1.0, 0.5, 0.1)
RELBOUND_SIZES = (25, 50, 100, 200, 399)
FOURIER_CASES = ((-0.01, "l1"), (0.24, "l2"), (0.49, "linf"))
FOURIER_RULES = (("u0", probes.sine_coefficients_initial_data),
                 ("1k", probes.worst_case_coefficients))
FOURIER_LENGTHS = tuple(2 ** k for k in range(6, 15))

NONSYM_N = 100
NONSYM_NU = 0.2
NONSYM_T = 1.0
NONSYM_TAUS = tuple(2.0 ** -k for k in range(3, 7))
ORDER_CHECKS = (("euler", 1), ("rk2", 2), ("rk3paper", 3))

# Tolerances against the values recorded from the seed commit. They admit
# last-digit drift from a different BLAS kernel or a reordered but equivalent
# evaluation (the RK4 reference moves by ~1e-13), and nothing larger.
ERR_RTOL = 1e-6
ERR_ATOL = 1e-13
ORDER_ATOL = 1e-3
PROBE_RTOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One operation: `run` computes a result, `check` lists what is wrong with it.

    `part` names the per-part timing (e.g. study_s.euler) the operation counts toward.
    """

    name: str
    part: str
    run: Callable[[], object]
    check: Callable[[object, "Ledger"], List[str]]


class Ledger:
    """Outputs of the first pass, which later passes must repeat byte for byte."""

    def __init__(self):
        self._first: Dict[str, bytes] = {}

    def same_as_first(self, key: str, blob: bytes) -> List[str]:
        first = self._first.setdefault(key, blob)
        return [] if first == blob else [f"{key}: output differs from the first pass"]


def check_study(name, expected, result, ledger: Ledger) -> List[str]:
    """Per-tau errors and fitted orders near the seed's; CSV text identical across passes."""
    report, csv_text = result
    problems = []
    rows = report.rows
    if len(rows) != len(expected["errors"]):
        return [f"{name}: {len(rows)} rows, expected {len(expected['errors'])}"]
    for row, ref in zip(rows, expected["errors"]):
        if row.flag != convergence.FLAG_OK:
            problems.append(f"{name}: tau={row.tau:g} flagged {row.flag}")
        for norm, want in zip(convergence.NORMS, ref):
            got = row.err(norm)
            if not math.isclose(got, want, rel_tol=ERR_RTOL, abs_tol=ERR_ATOL):
                problems.append(f"{name}: tau={row.tau:g} err_{norm}={got!r}, seed {want!r}")
    for norm, want in expected["orders"].items():
        got = report.fitted_order.get(norm, math.nan)
        if not math.isclose(got, want, abs_tol=ORDER_ATOL):
            problems.append(f"{name}: fitted order {norm}={got!r}, seed {want!r}")
    return problems + ledger.same_as_first(name, csv_text.encode())


def check_probe(name, expected, report, ledger: Ledger) -> List[str]:
    """Verdict equal to the seed's, maximum near it, values identical across passes."""
    problems = []
    if report.bounded != expected["bounded"]:
        problems.append(f"{name}: bounded={report.bounded}, seed {expected['bounded']}")
    if not math.isclose(report.max_value, expected["max"], rel_tol=PROBE_RTOL):
        problems.append(f"{name}: max={report.max_value!r}, seed {expected['max']!r}")
    return problems + ledger.same_as_first(name, np.asarray(report.values).tobytes())


def check_order_exit(name, result, ledger: Ledger) -> List[str]:
    """check-order must exit 0 and print the same table on every pass."""
    code, text = result
    problems = [] if code == 0 else [f"{name}: exit code {code}"]
    return problems + ledger.same_as_first(name, text.encode())


def paper_study(scheme):
    report = convergence.run_experiment(convergence.ExperimentSpec(scheme=scheme))
    return report, convergence.render_csv(report)


def nonsym_study():
    """rk3paper on the split A' = A - B/2, B' = B/2, so the exact part is not symmetric.

    B' - A' equals B - A, so the solution is the testbed's; only the
    Stepper's path changes, to the augmented expm/phi kernel.
    """
    grid = discretize.build_grid(NONSYM_N)
    base = discretize.build_operators(grid, NONSYM_NU)
    ops = discretize.OperatorPair(A=base.A - base.B / 2, B=base.B / 2, nu=NONSYM_NU)
    u0 = discretize.initial_data(grid)
    tau_ref = stepping.default_reference_step(ops, NONSYM_T)
    tau_ref = NONSYM_T / math.ceil(NONSYM_T / min(tau_ref, min(NONSYM_TAUS) / 16.0))
    u_ref = stepping.solve_reference_rk4(ops, u0, NONSYM_T, tau_ref)
    tableau = tableaus.third_order()
    rows = []
    for tau in NONSYM_TAUS:
        result = stepping.solve(tableau, ops, u0, NONSYM_T, tau)
        err = discretize.discrete_norms(grid, result.final - u_ref)
        rows.append(convergence.ConvergenceRow(tau, err.l1, err.l2, err.linf))
    fitted, pairwise = convergence.fit_order(rows)
    report = convergence.ConvergenceReport(
        rows=tuple(rows), fitted_order=fitted, pairwise_orders=pairwise,
        scheme=tableau.name, n_inner=NONSYM_N, nu=NONSYM_NU, T=NONSYM_T,
        tau_ref=tau_ref)
    return report, convergence.render_csv(report)


def check_order(scheme, order, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = exprk.cli.main(["check-order", "--scheme", scheme,
                               "--require-order", str(order), "--seed", str(seed)])
    return code, out.getvalue()


def smoothing(gamma):
    ops = discretize.build_operators(discretize.build_grid(399), 0.2)
    return probes.smoothing_probe(ops, gamma, SMOOTHING_TIMES)


def relbound(gamma):
    return probes.relative_boundedness_probe(gamma, RELBOUND_SIZES)


def fourier(rule, beta, norm):
    return probes.fourier_beta_probe(rule, beta, FOURIER_LENGTHS, norm)


def operations(workload, seed):
    """(name, part, run, kind) of each operation of one pass of `workload`."""
    if workload == "paper_study":
        return [(f"study.{s}", f"study_s.{s}", lambda s=s: paper_study(s), "study")
                for s in PAPER_SCHEMES]
    if workload == "probe_sweep":
        specs = [(f"smoothing.g{g:g}", "probe_s.smoothing", lambda g=g: smoothing(g), "probe")
                 for g in SMOOTHING_GAMMAS]
        specs += [(f"relbound.g{g:g}", "probe_s.relbound", lambda g=g: relbound(g), "probe")
                  for g in RELBOUND_GAMMAS]
        specs += [(f"fourier.b{beta:g}.{norm}.{tag}", "probe_s.fourier",
                   lambda r=rule, b=beta, m=norm: fourier(r, b, m), "probe")
                  for beta, norm in FOURIER_CASES for tag, rule in FOURIER_RULES]
        return specs
    if workload == "nonsym_kernel":
        return [("nonsym.rk3paper", "nonsym_study_s", nonsym_study, "study")] + [
            (f"check_order.{scheme}", "order_check_s",
             lambda s=scheme, o=order: check_order(s, o, seed), "exit")
            for scheme, order in ORDER_CHECKS]
    raise ValueError(f"unknown workload {workload!r}")


def _checker(kind, name, expected):
    if kind == "exit":
        return lambda result, ledger: check_order_exit(name, result, ledger)
    check = check_study if kind == "study" else check_probe
    return lambda result, ledger: check(name, expected[name], result, ledger)


def build(workload: str, seed: int, expected: Dict[str, dict]) -> List[Op]:
    """The operations of one pass of `workload`.

    `expected` maps operation names to the seed's values for this workload
    (a section of expected.json); checks look them up when they run.
    """
    return [Op(name, part, run, _checker(kind, name, expected))
            for name, part, run, kind in operations(workload, seed)]

