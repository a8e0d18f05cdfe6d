"""Numerical checks of the stiff order conditions (orders one to three).

The five conditions are operator identities in Z = -tau*A:
  1: sum_i b_i(Z) = phi_1(Z)
  2: sum_i b_i(Z) c_i = phi_2(Z)
  3: sum_j a_ij(Z) = c_i phi_1(c_i Z)            for each stage i >= 2
  4: sum_i b_i(Z) c_i^2 / 2 = phi_3(Z)
  5: sum_i b_i(Z) J (sum_k a_ik(Z) c_k - c_i^2 phi_2(c_i Z)) = 0

Each is checked in strong form (a concrete matrix Z), weak form (all phi
arguments at the zero matrix), or the intermediate weak-b-only form where
only the b_i are evaluated at zero; each reads one phi table of Z over _phi_keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import discretize
from .convergence import ExperimentSpec
from .errors import DimensionError, ParameterError
from .matfuncs import _as_square, phi_matrices
from .tableaus import Tableau

MODES = ("strong", "weak", "weak-b-only")
PASS_TOLERANCE = 1e-9  # residual <= tol * (1 + ||rhs||_inf)
_RANDOM_Z_NORM = 5.0  # 1-norm cap of random_stable_matrix
_POWER = {1: 0, 2: 1, 4: 2}  # condition: p in sum_i b_i(Z) c_i^p / p! = phi_{p+1}(Z)
CLAIM_MODES = {"strong": ("weak", "strong"), "weak": ("weak", "weak-b-only")}


def _inf_norm(M):
    return float(np.abs(M).max())


def check_condition(tableau: Tableau, no: int, Z=None, J=None,
                    mode: str = "strong") -> Dict[int, Tuple[float, float]]:
    """Residuals of one order condition.

    Returns {stage: (residual, rhs_inf_norm)}; condition 3 yields one
    entry per stage i >= 2, the others a single entry keyed 0. Z defaults
    to the 1x1 zero matrix, J to the identity; weak mode reads only the size of
    Z, which must still be square and finite.
    """
    if no not in (1, 2, 3, 4, 5):
        raise ParameterError(f"condition number must be 1..5, got {no}")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    Z = _as_square(np.zeros((1, 1)) if Z is None else Z, "Z")
    n = Z.shape[0]
    J = np.eye(n) if J is None else np.asarray(J, dtype=float)
    if J.shape != (n, n):
        raise DimensionError(f"J shape {J.shape} does not match Z ({n}x{n})")
    if mode == "weak":
        Z = np.zeros((n, n))
    return _residuals(tableau, no, phi_matrices(Z, _phi_keys(tableau)), J, mode)


def _phi_keys(tableau: Tableau):
    """The keys every condition reads: those of the a and b combos plus the
    right-hand sides phi_1, phi_2, phi_3 at 1 and phi_1, phi_2 at each c_i
    (a step's phi_0 at the nodes enters no condition)."""
    rhs = {(k, 1.0) for k in (1, 2, 3)} | {(k, ci) for ci in tableau.c[1:] for k in (1, 2)}
    return rhs.union(*(combo.keys for combo in (*tableau.a.values(), *tableau.b)))


def _residuals(tableau: Tableau, no: int, phi, J, mode: str) -> Dict[int, Tuple[float, float]]:
    """check_condition's residuals from a phi table holding every key of _phi_keys."""
    n = J.shape[0]
    I, zero = np.eye(n), np.zeros((n, n))
    s, c = tableau.s, tableau.c
    p = _POWER.get(no)

    def bmat(i):
        if mode == "weak-b-only":
            return tableau.b[i - 1].at_zero() * I
        return tableau.b[i - 1].combine(phi, zero)

    if p is not None:
        # sum_i c_i^p / p! b_i(Z) = phi_{p+1}(Z); the i = 1 term is zero for p > 0.
        lhs = sum((c[i - 1] ** p / math.factorial(p) * bmat(i) for i in range(1, s + 1)), zero)
        rhs = phi[p + 1, 1.0]
        return {0: (_inf_norm(lhs - rhs), _inf_norm(rhs))}
    if no == 3:
        out = {}
        for i in range(2, s + 1):
            terms = (tableau.a[i, j].combine(phi, zero) for j in range(1, i) if (i, j) in tableau.a)
            lhs = sum(terms, zero)
            rhs = c[i - 1] * phi[1, c[i - 1]]
            out[i] = (_inf_norm(lhs - rhs), _inf_norm(rhs))
        return out
    # condition 5
    lhs = np.zeros((n, n))
    for i in range(2, s + 1):
        bracket = -c[i - 1] ** 2 * phi[2, c[i - 1]]
        for k in range(2, i):
            if (i, k) in tableau.a:
                bracket = bracket + c[k - 1] * tableau.a[i, k].combine(phi, zero)
        lhs += bmat(i) @ J @ bracket
    return {0: (_inf_norm(lhs), 0.0)}


@dataclass(frozen=True)
class ConditionResidual:
    condition: int
    stage: int          # 0 unless the condition is stage-resolved
    mode: str
    z_spec: str
    residual: float
    rhs_norm: float

    @property
    def passed(self) -> bool:
        return self.residual <= PASS_TOLERANCE * (1.0 + self.rhs_norm)


@dataclass(frozen=True)
class OrderConditionReport:
    scheme: str
    rows: Tuple[ConditionResidual, ...]

    def to_table(self) -> str:
        w = max([len("z_spec")] + [len(r.z_spec) for r in self.rows])
        lines = [f"{'condition':>9}  {'stage':>5}  {'mode':<11}  {'z_spec':<{w}}  "
                 f"{'residual':>12}  {'status':<6}"]
        for r in self.rows:
            lines.append(f"{r.condition:>9}  {r.stage:>5}  {r.mode:<11}  {r.z_spec:<{w}}  "
                         f"{r.residual:>12.3e}  {'pass' if r.passed else 'fail':<6}")
        return "\n".join(lines) + "\n"


def random_stable_matrix(n: int, seed: int):
    """Seeded random matrix shifted so every eigenvalue has negative real part."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    shift = max(np.linalg.eigvals(S).real.max(), 0.0) + 0.5
    Z = S - shift * np.eye(n)
    norm1 = np.linalg.norm(Z, 1)
    if norm1 > _RANDOM_Z_NORM:
        Z *= _RANDOM_Z_NORM / norm1
    return Z


def full_report(tableau: Tableau, z_seed: int) -> OrderConditionReport:
    """All five conditions on three Z specifications.

    (a) the zero matrix (weak form), (b) a seeded random stable 6x6
    matrix, (c) Z = -tau*A for the n=10 testbed with tau = 0.1. On (b) and
    (c), condition 5 also runs weak-b-only (J = I) and with a seeded random J.
    """
    g = discretize.build_grid(10)
    ops = discretize.build_operators(g, ExperimentSpec.nu)
    specs = [
        ("zero", np.zeros((1, 1)), "weak"),
        ("random6", random_stable_matrix(6, z_seed), "strong"),
        ("testbed10", -0.1 * ops.A, "strong"),
    ]
    rows, keys = [], _phi_keys(tableau)
    for z_spec, Z, mode in specs:
        # One phi table per Z over every key the five conditions read.
        n = Z.shape[0]
        phi = phi_matrices(Z, keys)
        for no in (1, 2, 3, 4, 5):
            for stage, (resid, rhs) in _residuals(tableau, no, phi, np.eye(n), mode).items():
                rows.append(ConditionResidual(no, stage, mode, z_spec, resid, rhs))
        if mode == "strong":
            Jr = np.random.default_rng(z_seed + 1).standard_normal((n, n))
            for J, form, tag in ((np.eye(n), "weak-b-only", ""), (Jr, mode, "+randJ")):
                (resid, rhs), = _residuals(tableau, 5, phi, J, form).values()
                rows.append(ConditionResidual(5, 0, form, z_spec + tag, resid, rhs))
    return OrderConditionReport(scheme=tableau.name, rows=tuple(rows))


def first_failure(claims, report: OrderConditionReport) -> Optional[ConditionResidual]:
    """First row, in report order, that violates claims {condition: form}, or None.

    A claim reads its condition's rows of the modes CLAIM_MODES names: a
    'strong' one the weak and strong rows, a 'weak' one the weak and
    weak-b-only rows. Rows with the random J are diagnostics only.
    """
    for r in report.rows:
        form = claims.get(r.condition)
        if form is None or r.z_spec.endswith("+randJ"):
            continue
        if r.mode in CLAIM_MODES[form] and not r.passed:
            return r
    return None
