"""Convergence-study harness.

Runs a scheme across a grid of step sizes against an RK4 reference on
the advection-diffusion testbed, measures the endpoint error in three
discrete norms, fits observed orders, and serializes the result as CSV.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import discretize, stepping
from .discretize import NORMS
from .errors import InstabilityError, InsufficientDataError, ParameterError
from .tableaus import Tableau, float_text, resolve_scheme, second_order

FLAG_OK = "ok"
FLAG_UNSTABLE = "unstable"
FLAG_IDENTICAL = "identical"  # error exactly zero against the reference
REF_STEPS_PER_TAU = 16  # tau_ref is at most min(tau_list) / this


@dataclass(frozen=True)
class ExperimentSpec:
    n_inner: int = 399
    nu: float = 0.2
    T: float = 1.0
    scheme: str = "rk3paper"
    c: float = 0.5                      # free node of the rk2 family
    tableau: Optional[Tableau] = None   # overrides scheme when given
    tau_list: Tuple[float, ...] = tuple(2.0 ** -k for k in range(4, 11))

    def validate(self):
        if len(self.tau_list) < 4:
            raise ParameterError(
                f"tau_list needs >= 4 entries for an order fit, got {len(self.tau_list)}")
        if any(a <= b for a, b in zip(self.tau_list, self.tau_list[1:])):
            raise ParameterError("tau_list must be strictly decreasing")
        for tau in self.tau_list:
            stepping.check_divides(self.T, tau)

    def resolve_tableau(self) -> Tableau:
        second_order(self.c)  # raises for a c outside (0, 1], whichever scheme or tableau runs
        return self.tableau if self.tableau is not None else resolve_scheme(self.scheme, self.c)


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    err_l1: float
    err_l2: float
    err_linf: float
    flag: str = FLAG_OK

    def err(self, norm: str) -> float:
        return getattr(self, "err_" + norm)


@dataclass(frozen=True)
class ConvergenceReport:
    rows: Tuple[ConvergenceRow, ...]
    fitted_order: Dict[str, float]
    pairwise_orders: Dict[str, Tuple[float, ...]]
    scheme: str = ""
    n_inner: int = 0
    nu: float = 0.0
    T: float = 0.0
    tau_ref: float = 0.0


def fit_order(rows: Sequence[ConvergenceRow]):
    """Least-squares slope of log(err) vs log(tau) plus pairwise log2 ratios.

    Flagged rows are excluded from both estimates.
    """
    usable = [r for r in rows if r.flag == FLAG_OK]
    if len(usable) < 2:
        raise InsufficientDataError(
            f"order fit needs >= 2 unflagged rows, got {len(usable)}")
    log_tau = np.log([r.tau for r in usable])
    fitted, pairwise = {}, {}
    for nm in NORMS:
        errs = np.array([r.err(nm) for r in usable])
        fitted[nm] = float(np.polyfit(log_tau, np.log(errs), 1)[0])
        ratios = []
        for a, b in zip(usable, usable[1:]):
            if abs(a.tau / b.tau - 2.0) <= 1e-9:
                ratios.append(float(np.log2(a.err(nm) / b.err(nm))))
        pairwise[nm] = tuple(ratios)
    return fitted, pairwise


def run_experiment(spec: ExperimentSpec) -> ConvergenceReport:
    """Reference solve once, then one run per tau; errors at t = T."""
    spec.validate()
    tableau = spec.resolve_tableau()
    grid = discretize.build_grid(spec.n_inner)
    ops = discretize.build_operators(grid, spec.nu)
    u0 = discretize.initial_data(grid)
    tau_ref = stepping.default_reference_step(ops, spec.T)  # already T / N
    if tau_ref > (cap := min(spec.tau_list) / REF_STEPS_PER_TAU):
        tau_ref = spec.T / math.ceil(spec.T / cap)
    u_ref = stepping.solve_reference_rk4(ops, u0, spec.T, tau_ref)

    rows = []
    for tau in spec.tau_list:
        try:
            result = stepping.solve(tableau, ops, u0, spec.T, tau)
            norms = discretize.discrete_norms(grid, result.final - u_ref)
            flag = FLAG_OK if norms.linf > 0.0 else FLAG_IDENTICAL
            rows.append(ConvergenceRow(tau, norms.l1, norms.l2, norms.linf, flag))
        except InstabilityError:
            rows.append(ConvergenceRow(tau, math.nan, math.nan, math.nan, FLAG_UNSTABLE))
    fitted, pairwise = fit_order(rows)
    return ConvergenceReport(
        rows=tuple(rows), fitted_order=fitted, pairwise_orders=pairwise,
        scheme=tableau.name, n_inner=spec.n_inner, nu=spec.nu, T=spec.T,
        tau_ref=tau_ref)


def render_csv(report: ConvergenceReport) -> str:
    out = io.StringIO()
    out.write(",".join(("tau", *("err_" + nm for nm in NORMS), "flag")) + "\n")
    for r in report.rows:
        out.write(",".join(f"{x:.17g}" for x in (r.tau, *map(r.err, NORMS))) + f",{r.flag}\n")
    fitted = " ".join(f"fitted_order_{nm}={report.fitted_order[nm]:.17g}"
                      for nm in NORMS)
    out.write(f"# {fitted}\n")
    out.write(f"# scheme={report.scheme} n={report.n_inner} nu={float_text(report.nu)} "
              f"T={float_text(report.T)} tau_ref={report.tau_ref:.17g}\n")
    return out.getvalue()


def write_csv(text: str, destination):
    """The one CSV writer for studies and probes: text to the path destination, UTF-8, LF."""
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {destination}: {exc}") from exc

