"""1D advection-diffusion testbed on the unit interval.

Central second-order finite differences with homogeneous Dirichlet
boundary conditions give a symmetric positive definite diffusion matrix
A (discretizing -nu * d2/dx2) and a skew-symmetric advection matrix B
(discretizing d/dx), so the semidiscrete evolution is u' = -A u + B u.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .matfuncs import SymEigen, sym_eigen


@dataclass(frozen=True, eq=False)
class Grid1D:
    n_inner: int
    h: float
    xs: np.ndarray  # inner nodes i*h, i = 1..n_inner


@dataclass(frozen=True, eq=False)
class OperatorPair:
    A: np.ndarray = field(repr=False)  # SPD, discrete -nu * d2/dx2
    B: np.ndarray = field(repr=False)  # skew-symmetric, discrete d/dx
    nu: float
    # set by build_operators only, so A, B and L are its stencils; replace() drops it
    grid: Grid1D | None = field(default=None, init=False)

    def __post_init__(self):
        """A and B as float arrays, checked square and of one size (build_operators skips it)."""
        A, B = np.asarray(self.A, dtype=float), np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape != A.shape[::-1] or B.shape != A.shape:
            raise DimensionError("operator matrices must be square and equally sized")
        self.__dict__.update(A=A, B=B)

    def __getattr__(self, name: str) -> np.ndarray:
        """A, B or L = B - A: a build_operators pair's are written from stencil_bands into
        zeros on each read and never kept; a given pair's L is its B - A."""
        if name == "L" and self.grid is None:
            return self.B - self.A
        if name not in ("A", "B", "L") or self.grid is None:
            raise AttributeError(f"'OperatorPair' object has no attribute {name!r}")
        (lower, diagonal, upper), n = stencil_bands(self.grid, self.nu)[name], self.grid.n_inner
        M, i = np.zeros((n, n)), np.arange(n - 1)
        np.fill_diagonal(M, diagonal)
        M[i + 1, i], M[i, i + 1] = lower, upper
        return M

    @cached_property
    def eigen(self) -> SymEigen | None:
        """A = Q diag(lam) Q^T by one sym_eigen, cached; None for a non-symmetric A."""
        try:
            return sym_eigen(self.A)
        except ContractError:  # not symmetric to 1e-12 (or not finite)
            return None

    @cached_property
    def B_eigen(self) -> np.ndarray:
        """Q^T B Q, cached like eigen: a pair's given A and B must not change after first use."""
        Q = self.eigen.eigenvectors
        return Q.T @ self.B @ Q

    @cached_property
    def mirror_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, X), cached, on a build_operators pair: order lists A's modes even about x = 1/2
        (eigh's columns 0, 2, ...), then the odd ones; X = Q_e^T B Q_o (see exprk.stepping)."""
        Q, n = self.eigen.eigenvectors, self.grid.n_inner
        return np.r_[0:n:2, 1:n:2], Q[:, ::2].T @ apply_B(self.grid, Q[:, 1::2])

    @cached_property
    def phi_memo(self) -> dict:
        """matfuncs.phi_matrices' memo for this pair's Stepper builds: tau/2 reuses tau's levels."""
        return {}


NORMS = {"l1": 1, "l2": 2, "linf": math.inf}  # each error norm's name: its order p
NormTriple = namedtuple("NormTriple", NORMS)


def build_grid(n_inner: int) -> Grid1D:
    if n_inner < 2:
        raise ParameterError(f"need at least 2 inner points, got {n_inner}")
    h = 1.0 / (n_inner + 1)
    xs = h * np.arange(1, n_inner + 1)
    return Grid1D(n_inner=n_inner, h=h, xs=xs)


def stencil_bands(g: Grid1D, nu: float) -> dict[str, tuple[float, float, float]]:
    """(lower, main, upper) diagonals of the testbed stencils A = a tridiag(-1, 2, -1), a = nu/h^2,
    B = b tridiag(-1, 0, 1), b = 1/2h, and L = B - A, whose a - b, -2a, a + b round as B's
    bands minus A's do; ParameterError unless nu > 0 and 4a + 2b, which bounds A's spectrum and
    L's row sums, is finite."""
    a, b = nu / g.h ** 2, 1.0 / (2.0 * g.h)
    if not (0 < nu and 4.0 * a + 2.0 * b < np.inf):
        raise ParameterError(f"nu must be positive and finite, as must 4 nu/h^2 + 1/h, got {nu}")
    return {"A": (-a, 2.0 * a, -a), "B": (-b, 0.0, b), "L": (a - b, -2.0 * a, a + b)}


def build_operators(g: Grid1D, nu: float) -> OperatorPair:
    """The testbed pair on g. It holds g and nu only; A, B and L are formed on each read."""
    stencil_bands(g, nu)  # checks nu against g
    ops = object.__new__(OperatorPair)  # bypasses __init__, so A and B stay unset
    ops.__dict__.update(nu=nu, grid=g)
    return ops


def exact_eigenvalues(g: Grid1D, nu: float) -> np.ndarray:
    """A's closed-form eigenvalues lam_k = 2 A_kk sin^2(k pi h/2), k = 1..n, ascending."""
    k = np.arange(1, g.n_inner + 1)
    return (2.0 * stencil_bands(g, nu)["A"][1]) * np.sin(0.5 * np.pi * g.h * k) ** 2


def dst1(X) -> np.ndarray:
    """Q @ X along axis 0 (n = len(X)) for A's eigenbasis Q_jk = sqrt(2h) sin(jk pi h), the DST-I,
    from one real FFT of [0, X, 0, ..., 0] of length 2(n+1) (Cooley & Tukey 1965; Martucci 1994)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Z = np.zeros((2 * (n + 1),) + X.shape[1:])
    Z[1:n + 1] = X
    return -np.sqrt(2.0 / (n + 1)) * np.fft.rfft(Z, axis=0).imag[1:n + 1]


def apply_B(g: Grid1D, X) -> np.ndarray:
    """B @ X from B's two off-diagonals; X @ B is -apply_B(g, X.T).T as B is skew."""
    X = np.asarray(X, dtype=float)
    BX = np.zeros_like(X)
    BX[:-1] = X[1:]
    BX[1:] -= X[:-1]
    return BX / (2.0 * g.h)


def initial_data(g: Grid1D) -> np.ndarray:
    """Parabolic bump 4 x (1 - x) sampled at the inner nodes."""
    return 4.0 * g.xs * (1.0 - g.xs)


def grid_norm(v, p, h: float) -> float:
    """(h sum |v|^p)^(1/p) for p >= 1 and max|v| for p = inf; where the plain sum overflows,
    the sum is taken over v / max|v| and the root scaled back."""
    a, scale = np.abs(np.asarray(v, dtype=float)), 1.0
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    with np.errstate(over="ignore"):
        s = h * (a ** p).sum()
    if s == math.inf and (m := a.max()) < math.inf:
        scale, s = float(m), h * ((a / m) ** p).sum()
    return scale * float(np.asarray(s) ** (1.0 / p))  # a 0-d array's ** 0.5 takes np.sqrt's bits


def discrete_norms(g: Grid1D, v) -> NormTriple:
    """grid_norm of a grid function for each order p of NORMS, with the grid's h."""
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_inner,):
        raise DimensionError(
            f"vector length {v.shape} does not match grid size {g.n_inner}")
    return NormTriple(*(grid_norm(v, p, g.h) for p in NORMS.values()))
