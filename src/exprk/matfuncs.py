"""Dense matrix-function kernel.

Provides the matrix exponential (scaling-and-squaring with a diagonal
Pade approximant of order 13), the phi functions phi_k for scalars and
(in phi_matrices, the one evaluator of phi matrices) for matrices, the
augmented-matrix evaluation of sum_i phi_i(M) v_i as a single exponential,
and a symmetric eigendecomposition with fractional powers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ParameterError

MAX_PHI_ORDER = 8

# Numerator coefficients of the [13/13] diagonal Pade approximant to exp.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_BOUND = 5.37  # 1-norm up to which the approximant is full precision
_SYMMETRY_RTOL = 1e-12  # is_symmetric: max |M - M^T| <= this * max |M|

_PHI_TAYLOR_TERMS = 20  # Taylor terms of _phi_levels at ||Y||_1 <= 1
_PHI_SCALAR_CUTOFF = 3.0  # phi_values sums Taylor terms below this |z|
_PHI_SCALAR_TERMS = 40


def _as_array(x, name="input"):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{name} contains non-finite entries")
    return a


def _as_square(M, name="matrix"):
    M = _as_array(M, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def is_symmetric(M):
    return np.abs(M - M.T).max() <= _SYMMETRY_RTOL * np.abs(M).max()


def _expm_levels(Ms, E=None):
    """e^(2^j Ms), j = 0, 1, ...: a Pade solve at Ms (none from a level E), a squaring a level."""
    if E is None:
        b, I = _PADE13, np.eye(len(Ms))
        M2 = Ms @ Ms
        M4 = M2 @ M2
        M6 = M4 @ M2
        U = Ms @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
                  + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * I)
        V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
             + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * I)
        E = np.linalg.solve(V - U, V + U)
    while True:
        yield E
        E = E @ E


def expm(M):
    """Matrix exponential e^M via scaling-and-squaring, Pade order 13: the phi_0
    chain of phi_matrices at t = 1, s = max(0, ceil(log2(||M||_1 / 5.37))).
    """
    return phi_matrices(M, [(0, 1.0)])[0, 1.0]


def _check_order(k):
    if not 0 <= k <= MAX_PHI_ORDER:
        raise ParameterError(f"phi order must be in [0, {MAX_PHI_ORDER}], got {k}")


def phi_values(k: int, z):
    """phi_k evaluated elementwise on a scalar or array argument.

    Uses the downward recursion from exp for |z| >= 3 and a truncated
    Taylor series sum_j z^j / (j+k)! below that, where the recursion's
    cancellation amplifies rounding by about |z|^-k.
    """
    _check_order(k)
    z = np.asarray(z, dtype=float)
    if k == 0:
        return np.exp(z)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SCALAR_CUTOFF
    zs = z[small]
    acc = np.zeros_like(zs)
    for j in range(_PHI_SCALAR_TERMS - 1, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(j + k)
    out[small] = acc
    zb = z[~small]
    p = np.exp(zb)
    for j in range(k):
        p = (p - 1.0 / math.factorial(j)) / zb
    out[~small] = p
    return out


def phi_combination(M, vs):
    """Evaluate sum_{i=1..k} phi_i(M) v_i as one matrix exponential.

    Builds the (n+k)x(n+k) augmentation [[M, W], [0, K]] with W columns
    v_k, ..., v_1 and K the nilpotent superdiagonal shift; the first n
    entries of exp's last column give the combination.
    """
    M = _as_square(M)
    n = M.shape[0]
    if len(vs) < 1:
        raise ParameterError("need at least one vector")
    vs = [_as_array(v, "vector") for v in vs]
    for v in vs:
        if v.shape != (n,):
            raise DimensionError(f"vector length {v.shape} does not match matrix size {n}")
    k = len(vs)
    W = np.column_stack([vs[k - 1 - j] for j in range(k)])
    aug = np.zeros((n + k, n + k))
    aug[:n, :n] = M
    aug[:n, n:] = W
    if k > 1:
        aug[n:, n:] = np.diag(np.ones(k - 1), 1)
    return expm(aug)[:n, -1]


def _phi_levels(Y, kmax, phis=None):
    """[phi_0, ..., phi_kmax] at 2^j Y for j = 0, 1, ... (Skaflestad & Wright 2009).

    At ||Y||_1 <= 1 one Horner pass gives the Taylor sum of phi_kmax(Y) and then
    phi_j = Y phi_{j+1} + I/j!; each level is one doubling, from a given level phis with no
    Horner pass: phi_j(2Y) = 2^-j (phi_0 phi_j + sum_{i=1..j} phi_i / (j-i)!).
    Both run in place, as fresh n x n temporaries page-fault: Horner starts at I/(kmax+19)!
    (Y @ 0 + I/(kmax+19)! for finite Y) and adds 1/j! to Y @ P's diagonal; a doubling sums
    into its fresh entry via one scratch and scales by 0.5^j. Values are the out-of-place ones.
    """
    spare = np.empty_like(Y)
    if phis is None:
        P, phis = np.zeros_like(Y), []
        P.flat[::len(Y) + 1] = 1.0 / math.factorial(kmax + _PHI_TAYLOR_TERMS - 1)
        for j in range(kmax + _PHI_TAYLOR_TERMS - 2, -1, -1):
            P = Y @ P
            P.flat[::len(Y) + 1] += 1.0 / math.factorial(j)
            if j <= kmax:
                phis.insert(0, P)
    while True:
        yield phis
        old, phis = phis, [phis[0] @ phis[0]]
        for j in range(1, kmax + 1):
            G = old[1] / math.factorial(j - 1)
            for i in range(2, j + 1):  # skips the exact division by (j - i)! = 1
                G += old[i] if j - i < 2 else np.divide(old[i], math.factorial(j - i), out=spare)
            G += np.matmul(old[0], old[j], out=spare)
            phis.append(np.multiply(G, 0.5 ** j, out=G))


def _chain_levels(M, kmax, bound, levels, old, memo):
    """{t: level s of levels(Y, k)} for each t in kmax, with t M = 2^s Y, ||Y||_1 <= bound.

    t = m 2^e with 1 <= |m| < 2 (so m M is M itself at t = 1, as expm needs), and a
    power of two scales exactly (away from overflow and subnormals), so t M = 2^e (m M):
    the members of one family m with one d = e - s share Y = 2^d (m M), bit for bit
    what t M / 2^s gives, and one chain run to their largest s, with k their largest kmax.
    Levels kept in old are read, not rerun, and memo gets each chain's window (phi_matrices).
    """
    family, groups = {}, defaultdict(lambda: defaultdict(list))
    for t in kmax:
        m, e = math.frexp(t)
        m, e = 2.0 * m, e - 1
        if m not in family:
            mM = m * M
            family[m] = mM, np.linalg.norm(mM, 1)
        norm = math.ldexp(family[m][1], e)  # ||t M||_1, and s the least with norm / 2^s <= bound
        s = max(0, math.ceil(math.log2(norm / bound))) if norm > bound else 0
        groups[m, e - s][s].append(t)
    out = {}
    for (m, d), members in groups.items():
        k = max(kmax[t] for ts in members.values() for t in ts)
        key = k, (Y := np.ldexp(family[m][0], d)).tobytes()
        kept, lo = old.get(key, {}), min(members) - 1
        missing = [s for s in members if s not in kept]
        if missing:  # one run, from the highest kept level below them to the highest
            start = max((j for j in kept if j < min(missing)), default=0)
            for s, level in zip(range(start, max(missing) + 1), levels(Y, k, kept.get(start))):
                if s == 0 or s >= lo:
                    kept[s] = level
        memo[key] = {s: kept[s] for s in kept if s == 0 or lo <= s <= max(members)}
        out.update((t, kept[s]) for s, ts in members.items() for t in ts)
    return out


def phi_matrices(M, keys, memo=None):
    """{(k, t): phi_k(t M)} for every key (k, t) in keys, symmetric M or not.

    The t of one power-of-two family (t = 1, 1/2, 1/4, ...) share one chain
    for phi_0 (a Pade solve and its squarings, as in expm) and one for
    phi_1..phi_kmax (a Horner pass and its doublings), each run to the
    family's largest |t| and read off on the way up. A t whose t M is below
    a chain's base (||t M||_1 <= 1 for phi, <= 5.37 for phi_0), or outside
    every family, gets a chain of its own; t = 0 gives I/k! exactly. Only
    the t of a phi_0 key run a phi_0 chain.

    A memo dict kept by the caller passes levels on, as M and M/2 share their chains' bases Y
    bit for bit: each call sets it to {(k, Y's bytes): {s: level}} for its chains (k = 0: Pade),
    level 0 and one below the lowest read to the highest; values, read-only, are as without it.
    """
    M = _as_square(M)
    keys = set(keys)
    for k, _ in keys:
        _check_order(k)
    out = {(k, t): np.eye(len(M)) / math.factorial(k) for k, t in keys if t == 0.0}
    todo, kmax = keys - out.keys(), {}
    for k, t in todo:
        kmax[t] = max(k, kmax.get(t, 0))
    old, memo = ({}, {}) if memo is None else (dict(memo), memo)
    memo.clear()
    phi0 = _chain_levels(M, {t: 0 for k, t in todo if k == 0}, _PADE13_BOUND,
                         lambda Y, _, E: _expm_levels(Y, E), old, memo)
    phis = _chain_levels(M, {t: k for t, k in kmax.items() if k}, 1.0, _phi_levels, old, memo)
    out.update({(k, t): phis[t][k] if k else phi0[t] for k, t in todo})
    return out


def phi_matrix(k: int, M):
    """phi_k(M) as a dense matrix (see phi_matrices)."""
    return phi_matrices(M, [(k, 1.0)])[k, 1.0]


@dataclass(frozen=True, eq=False)
class SymEigen:
    """Eigendecomposition M = Q diag(eigenvalues) Q^T, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(M) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix.

    Raises ContractError when the relative asymmetry (inf-norm) exceeds 1e-12.
    """
    M = _as_square(M)
    if not is_symmetric(M):
        raise ContractError(f"matrix is not symmetric to {_SYMMETRY_RTOL:g}")
    # eigh reads one triangle, so it gets the symmetric part; that is M itself,
    # bit for bit, when M is exactly symmetric
    lam, Q = np.linalg.eigh(M if np.array_equal(M, M.T) else 0.5 * (M + M.T))
    return SymEigen(eigenvalues=lam, eigenvectors=Q)


def frac_power(E: SymEigen, gamma: float):
    """Q diag(lambda^gamma) Q^T; needs a positive spectrum for non-integral gamma
    and a nonsingular matrix for negative gamma."""
    lam = E.eigenvalues
    if (gamma != int(gamma) and lam.min() <= 0.0) or (gamma < 0 and np.any(lam == 0.0)):
        raise DomainError(f"power {gamma} undefined: smallest eigenvalue {lam.min():g} <= 0")
    Q = E.eigenvectors
    return (Q * lam ** gamma) @ Q.T
