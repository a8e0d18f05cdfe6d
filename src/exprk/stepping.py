"""Time stepping for explicit exponential Runge-Kutta schemes.

The problem u' + Au = Bu is linear and autonomous, so one step of an
explicit exponential Runge-Kutta scheme is a fixed matrix R(tau), built once
per (tableau, A, tau) by running the stage recurrence on the identity. For a
symmetric A = Q diag(lam) Q^T it runs in A's eigenbasis (Hochbruck & Ostermann,
Acta Numerica 2010, sec. 2), where every phi matrix is a diagonal phi_k(t lam):
a build there costs its s - 1 products B^ U_i, B^ = Q^T B Q, plus O(n^2) row scalings
and in-place sums in s n x n arrays, each phi_0 + T_1 + ... left to right. On a build_operators
pair A is persymmetric and B anti-persymmetric, so A's modes fall in two mirror classes, even
(k = 1, 3, ...) and odd about x = 1/2, and B^ couples only modes of opposite classes (Cantoni &
Butler 1976): in class order B^ = [[0, X], [-X^T, 0]] with (order, X) = ops.mirror_classes,
and each product B^ U is two half-size GEMMs.
Any other A takes its phi matrices from one matfuncs.phi_matrices call, in
which nodes of one power-of-two family (1 and 1/2 for rk2(1/2) and rk3paper)
share one squaring chain for phi_0 and one doubling chain for the higher phi.
The pair's phi_memo keeps each chain's base and its levels from one below the lowest
read up, keyed by top phi order and base bits: tau/2 needs no Horner pass or Pade solve.

solve runs its N matvecs unchecked and tests finiteness once at the end: a
non-finite entry stays non-finite through every later matvec. Only a failed
run is replayed with a check per step, so InstabilityError names the first
non-finite step. The RK4 reference first checks tau_ref against
_gershgorin_radius (L's band row sums on a build_operators pair: a rejected tau_ref
forms no n x n array), then reads L = B - A, forms P = p(tau_ref L) and its first squares
over their band only, squares while a square costs fewer matvecs than it saves,
and applies the rest of P^N to u0 as matvecs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import OperatorPair, stencil_bands
from .errors import DimensionError, InstabilityError, ParameterError
from .matfuncs import phi_matrices, phi_values
from .tableaus import Tableau

RK4_STABILITY_LIMIT = 2.7  # inside the real-axis stability interval (~2.785)


@dataclass(frozen=True, eq=False)
class SolveResult:
    final: np.ndarray
    steps: int
    tau: float


class Stepper:
    """Step u -> Q R Q^T u: Q is A's eigenvectors (R in self.order) for a symmetric A, else I."""

    def __init__(self, tableau: Tableau, ops: OperatorPair, tau: float):
        if not 0 < tau < math.inf:
            raise ParameterError(f"step size must be positive and finite, got {tau}")

        # phi_k(scale * Z), Z = -tau * A, for every (k, scale) in tableau.phi_keys.
        # In A's eigenbasis it is a diagonal, held as a column, so applying it
        # is a row scaling. A build_operators pair orders that basis by class.
        diagonal, self.order, product = ops.eigen is not None, slice(None), np.matmul
        if diagonal:
            lam, self.Q, apply = ops.eigen.eigenvalues, ops.eigen.eigenvectors, np.multiply
            if ops.grid is None:
                B = ops.B_eigen
            else:  # B^ = [[0, X], [-X^T, 0]] in class order, held as X = B
                self.order, B = ops.mirror_classes
                lam, m = lam[self.order], len(B)

                def product(X, S, out):  # B^ S = [X S_o; -X^T S_e], S_e, S_o: S's class rows
                    np.matmul(X, S[m:], out=out[:m])
                    np.negative(np.matmul(X.T, S[:m], out=out[m:]), out=out[m:])
                    return out

                # col * B^ copies X into whole blocks and multiplies once: a ufunc on a block view
                # would take three 64 KB iterator buffers, 0.15 n x n at n = 399
                def apply(col, M, out):
                    if M is B:
                        out[:m, :m], out[m:, m:], out[:m, m:], out[m:, :m] = 0.0, 0.0, B, B.T
                        np.negative(out[m:], out=out[m:])
                        M = out
                    return np.multiply(col, M, out=out)
            phi = {(k, s): phi_values(k, -s * tau * lam)[:, None] for k, s in tableau.phi_keys}
        else:
            A, B = ops.A, ops.B
            self.Q, apply = np.eye(len(A)), np.matmul
            phi = phi_matrices(-tau * A, tableau.phi_keys, ops.phi_memo)
        n, zero = len(self.Q), np.zeros_like(phi[0, 1.0])
        # A build holds s n x n arrays of its own (three for rk3paper): page faults on
        # fresh n x n temporaries took ~2.5 of ~11 ms of an rk3paper build at n = 399.
        spare = np.empty((n, n))

        def stage(c, terms):
            """phi_0(c Z) + T_1 + T_2 + ..., T_j = tau combo_j(Z) BU_j, summed in place
            left to right."""
            S = np.diag(phi[0, c][:, 0]) if diagonal else phi[0, c].copy()
            for combo, BUj in terms:
                S += apply(tau * combo.combine(phi, zero), BUj, out=spare)
            return S

        # The stage recurrence with the identity as the state: U_i is the matrix taking u
        # to stage i, and BU[i - 1] = B U_i, written into the spare; U_i's buffer is the next.
        BU = [B]  # U_1 = I since c_1 = 0
        for i, ci in enumerate(tableau.c[1:], start=2):
            a_i = [(tableau.a[i, j], BU[j - 1]) for j in range(1, i) if (i, j) in tableau.a]
            BU.append(product(B, S := stage(ci, a_i), out=spare))
            spare = S
        # R = phi_0 + T_1 + ... as T_1 + phi_0 + ... (one sum either way round), phi_0 added
        # on the diagonal (step n + 1) or whole; no BU_j is read again, so T_j overwrites it.
        self.R = apply(tau * tableau.b[0].combine(phi, zero), B, out=spare)
        self.R.reshape(-1)[::n + 1 if diagonal else 1] += phi[0, 1.0].reshape(-1)
        for combo, BUj in zip(tableau.b[1:], BU[1:]):
            self.R += apply(tau * combo.combine(phi, zero), BUj, out=BUj)

    def to_basis(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != self.R.shape[:1]:
            raise DimensionError(f"state shape {u.shape} does not match operators ({len(self.R)})")
        return (self.Q.T @ u)[self.order]

    def from_basis(self, v):
        w = np.empty_like(v)
        w[self.order] = v
        return self.Q @ w

    def step(self, u):
        return self.from_basis(self.R @ self.to_basis(u))


def check_divides(T, tau, what="tau") -> int:
    """N = T/tau; ParameterError unless tau > 0 and T/tau is within max(1e-9, N 2^-50), a few
    ulps of N, of an integer 1 <= N < 2^48, below which a float still tells a non-integer."""
    ratio = T / tau if tau > 0 else math.inf
    N = round(ratio) if ratio < 2.0 ** 48 else 0
    if N < 1 or abs(ratio - N) > max(1e-9, N * 2.0 ** -50):
        raise ParameterError(f"{what}={tau:g} does not divide T={T:g} into fewer than 2^48 steps")
    return N


def solve(tableau: Tableau, ops: OperatorPair, u0, T: float, tau: float) -> SolveResult:
    """Integrate u' = -A u + B u from 0 to T with N = T/tau steps."""
    N = check_divides(T, tau)
    stepper = Stepper(tableau, ops, tau)
    v = v0 = stepper.to_basis(u0)  # one map into the basis, one back
    # A non-finite entry stays non-finite through every later matvec, so one
    # check at the end finds any; only then is the run replayed step by step
    # for the first failing step and the warnings that a checked run gives.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N):
            v = stepper.R @ v
    if not np.isfinite(v).all():
        v = v0
        for i in range(N):
            v = stepper.R @ v
            if not np.isfinite(v).all():
                raise InstabilityError(i + 1)
    return SolveResult(final=stepper.from_basis(v), steps=N, tau=tau)


def spectral_radius_estimate(L) -> float:
    """Gershgorin bound ||L||_inf = max_i sum_j |L_ij| on the spectral radius of L.

    Every eigenvalue lies in a Gershgorin disc, so this is a guaranteed
    upper bound, never an underestimate.
    """
    return float(np.abs(np.asarray(L, dtype=float)).sum(axis=1).max())


def _band_matmul(X, wx, Y, wy, out):
    """out = X @ Y for n x n X, Y of bandwidths wx, wy, written in blocks of 64 rows
    over the product's bandwidth wx + wy only (Golub & Van Loan, sec. 1.2), so out
    must be zero outside it; the dense np.matmul where that saves under half the flops."""
    n, b = len(X), 64
    if 2 * min(n, b + 2 * wx) * min(n, b + 2 * (wx + wy)) > n * n:
        return np.matmul(X, Y, out=out)
    for r in range(0, n, b):
        k0, k1, c0, c1 = max(0, r - wx), r + b + wx, max(0, r - wx - wy), r + b + wx + wy
        np.matmul(X[r:r + b, k0:k1], Y[k0:k1, c0:c1], out=out[r:r + b, c0:c1])
    return out


def solve_reference_rk4(ops: OperatorPair, u0, T: float, tau_ref: float):
    """Classical RK4 on u' = (B - A) u, the reference solver; ParameterError unless
    tau_ref <= 2.7 / _gershgorin_radius(ops), checked before ops.L is read."""
    N = check_divides(T, tau_ref, "tau_ref")
    rho = _gershgorin_radius(ops)
    if rho > 0 and tau_ref > RK4_STABILITY_LIMIT / rho:
        raise ParameterError(
            f"tau_ref={tau_ref:g} exceeds RK4 stability bound "
            f"{RK4_STABILITY_LIMIT / rho:g} (spectral radius <= {rho:g})")
    L = ops.L  # formed on this read, so M and P may overwrite it
    n, (i, j) = L.shape[0], np.nonzero(L)
    w = int(np.abs(i - j).max(initial=0))  # L's bandwidth: max |i - j| over its nonzeros
    M = np.multiply(L, tau_ref, out=L)  # of bandwidth w; L is not read again
    # RK4 on a linear autonomous system is the quartic Taylor polynomial, so N
    # steps are P^N u0 with P = I + M (I + M (I/2 + M (I/6 + M/24))) of bandwidth 4w.
    P, spare = M / 24.0, np.zeros((n, n))
    P.flat[::n + 1] += 1.0 / 6.0
    for j, c in enumerate((0.5, 1.0, 1.0), start=1):
        P, spare = _band_matmul(M, w, P, j * w, spare), P
        P.flat[::n + 1] += c
    # Binary powering on u0 (Higham, Functions of Matrices, sec. 4.1): a square saves
    # N/2 matvecs and costs ~n/4 (3.3 ms against 33 us at n = 399 on one thread), so
    # squaring stops once 2N <= n. Bands only grow: `spare` is 0 outside the next one.
    u, k, w = np.asarray(u0, dtype=float), N, 4 * w
    while 2 * k > n:
        if k % 2:
            u = P @ u
        P, spare = _band_matmul(P, w, P, w, spare), P
        k, w = k // 2, 2 * w
    for _ in range(k):
        u = P @ u
    if not np.all(np.isfinite(u)):
        raise InstabilityError(N, "reference solve produced non-finite values")
    return u


def _gershgorin_radius(ops: OperatorPair) -> float:
    """spectral_radius_estimate(L); for a build_operators pair the largest row sum of L's
    bands (row 1 has no lower, row n no upper entry), no n x n."""
    if ops.grid is None:
        return spectral_radius_estimate(ops.L)
    lower, diagonal, upper = map(abs, stencil_bands(ops.grid, ops.nu)["L"])
    return diagonal + max(lower, upper) + (min(lower, upper) if ops.grid.n_inner > 2 else 0.0)


def default_reference_step(ops: OperatorPair, T: float) -> float:
    """Largest tau_ref = T/N with tau_ref <= min(2^-16, 0.9 * 2.7 / _gershgorin_radius(ops));
    ParameterError, naming the radius, unless it is finite and N < 2^48."""
    rho = _gershgorin_radius(ops)
    bound = 2.0 ** -16
    if rho > 0:
        bound = min(bound, 0.9 * RK4_STABILITY_LIMIT / rho)
    if not (rho < math.inf and T / bound < 2.0 ** 48):
        raise ParameterError(f"the Gershgorin radius {rho:g} of B - A leaves no RK4 reference "
                             f"step that divides T={T:g} into fewer than 2^48 steps")
    return T / math.ceil(T / bound)
