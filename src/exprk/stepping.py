"""Time stepping for explicit exponential Runge-Kutta schemes.

The problem u' + Au = Bu is linear and autonomous, so one step of an
explicit exponential Runge-Kutta scheme is a fixed matrix R(tau), built once
per (tableau, A, tau) by running the stage recurrence on the identity. For a
symmetric A = Q diag(lam) Q^T it runs in A's eigenbasis (Hochbruck & Ostermann,
Acta Numerica 2010, sec. 2), where every phi matrix is a diagonal phi_k(t lam);
any other A takes its phi matrices from one matfuncs.phi_matrices call, in
which nodes of one power-of-two family (1 and 1/2 for rk2(1/2) and rk3paper)
share one squaring chain for phi_0 and one doubling chain for the higher phi.
The RK4 reference is the quartic P = p(tau_ref (B - A)) raised to the power N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import OperatorPair
from .errors import DimensionError, InstabilityError, ParameterError
from .matfuncs import phi_matrices, phi_values
from .tableaus import Tableau

RK4_STABILITY_LIMIT = 2.7  # inside the real-axis stability interval (~2.785)


@dataclass(frozen=True)
class SolveResult:
    final: np.ndarray
    steps: int
    tau: float


class Stepper:
    """Step u -> Q R Q^T u: Q is A's eigenvectors for a symmetric A, else I."""

    def __init__(self, tableau: Tableau, ops: OperatorPair, tau: float):
        if not 0 < tau < math.inf:
            raise ParameterError(f"step size must be positive and finite, got {tau}")
        A = np.asarray(ops.A, dtype=float)
        B = np.asarray(ops.B, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape != (n, n):
            raise DimensionError("operator matrices must be square and equally sized")

        # phi_k(scale * Z), Z = -tau * A, for every (k, scale) in tableau.phi_keys.
        # In A's eigenbasis it is a diagonal, held as a column, so applying it
        # is a row scaling. exp_at(c) is phi_0(c Z) as a matrix; a dense phi
        # matrix is one already, and X @ I would only copy it.
        I = np.eye(n)
        if ops.eigen is not None:
            lam, self.Q, B = ops.eigen.eigenvalues, ops.eigen.eigenvectors, ops.B_eigen
            phi = {(k, s): phi_values(k, -s * tau * lam)[:, None] for k, s in tableau.phi_keys}
            apply, exp_at = np.multiply, lambda c: phi[0, c] * I
        else:
            self.Q, phi, apply = I, phi_matrices(-tau * A, tableau.phi_keys), np.matmul
            exp_at = lambda c: phi[0, c]
        zero = np.zeros_like(phi[0, 1.0])

        # The stage recurrence with the identity as the state: U_i is the
        # matrix taking u to stage i, and BU[i - 1] = B U_i.
        BU = [B]  # U_1 = I since c_1 = 0
        for i, ci in enumerate(tableau.c[1:], start=2):
            Ui = exp_at(ci) if ci != 0.0 else I
            for j in range(1, i):
                if (i, j) in tableau.a:
                    Ui = Ui + apply(tau * tableau.a[i, j].combine(phi, zero), BU[j - 1])
            BU.append(B @ Ui)
        R = exp_at(1.0)
        for bi, BUi in zip(tableau.b, BU):
            R = R + apply(tau * bi.combine(phi, zero), BUi)
        self.R = R

    def to_basis(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != self.R.shape[:1]:
            raise DimensionError(f"state shape {u.shape} does not match operators ({len(self.R)})")
        return self.Q.T @ u

    def step(self, u):
        return self.Q @ (self.R @ self.to_basis(u))


def check_divides(T, tau, what="tau") -> int:
    """N = T/tau; ParameterError unless tau > 0 and T/tau is finite and within
    1e-9 of an integer N >= 1."""
    ratio = T / tau if tau > 0 else math.inf
    if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
        raise ParameterError(f"{what}={tau:g} does not divide T={T:g}")
    return round(ratio)


def solve(tableau: Tableau, ops: OperatorPair, u0, T: float, tau: float) -> SolveResult:
    """Integrate u' = -A u + B u from 0 to T with N = T/tau steps."""
    N = check_divides(T, tau)
    stepper = Stepper(tableau, ops, tau)
    v = stepper.to_basis(u0)  # one map into the basis, one back
    for i in range(N):
        v = stepper.R @ v
        if not np.isfinite(v).all():
            raise InstabilityError(i + 1)
    return SolveResult(final=stepper.Q @ v, steps=N, tau=tau)


def spectral_radius_estimate(L) -> float:
    """Gershgorin bound ||L||_inf = max_i sum_j |L_ij| on the spectral radius of L.

    Every eigenvalue lies in a Gershgorin disc, so this is a guaranteed
    upper bound, never an underestimate.
    """
    return float(np.abs(np.asarray(L, dtype=float)).sum(axis=1).max())


def solve_reference_rk4(ops: OperatorPair, u0, T: float, tau_ref: float):
    """Classical RK4 on u' = (B - A) u; the reference solver.

    Rejects step sizes outside the explicit stability bound
    tau_ref <= 2.7 / rho, with rho the Gershgorin bound on rho(B - A).
    """
    N = check_divides(T, tau_ref, "tau_ref")
    L = np.asarray(ops.B, dtype=float) - np.asarray(ops.A, dtype=float)
    rho = spectral_radius_estimate(L)
    if rho > 0 and tau_ref > RK4_STABILITY_LIMIT / rho:
        raise ParameterError(
            f"tau_ref={tau_ref:g} exceeds RK4 stability bound "
            f"{RK4_STABILITY_LIMIT / rho:g} (spectral radius <= {rho:g})")
    n = L.shape[0]
    I = np.eye(n)
    M = tau_ref * L
    # RK4 on a linear autonomous system is the quartic Taylor polynomial in
    # tau*L, so N steps are P^N (formed by binary powering).
    P = I + M @ (I + M @ (I / 2.0 + M @ (I / 6.0 + M / 24.0)))
    u = np.linalg.matrix_power(P, N) @ np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InstabilityError(N, "reference solve produced non-finite values")
    return u


def default_reference_step(ops: OperatorPair, T: float = 1.0) -> float:
    """Largest tau_ref = T/N with tau_ref <= min(2^-16, 0.9 * 2.7 / rho)."""
    rho = spectral_radius_estimate(ops.A - ops.B)
    bound = 2.0 ** -16
    if rho > 0:
        bound = min(bound, 0.9 * RK4_STABILITY_LIMIT / rho)
    return T / math.ceil(T / bound)
