"""1D advection-diffusion testbed on the unit interval.

Central second-order finite differences with homogeneous Dirichlet
boundary conditions give a symmetric positive definite diffusion matrix
A (discretizing -nu * d2/dx2) and a skew-symmetric advection matrix B
(discretizing d/dx), so the semidiscrete evolution is u' = -A u + B u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .matfuncs import SymEigen, sym_eigen


@dataclass(frozen=True)
class Grid1D:
    n_inner: int
    h: float
    xs: np.ndarray  # inner nodes i*h, i = 1..n_inner


@dataclass(frozen=True)
class OperatorPair:
    A: np.ndarray  # SPD, discrete -nu * d2/dx2
    B: np.ndarray  # skew-symmetric, discrete d/dx
    nu: float
    # set by build_operators only, so A and B are its stencils; replace() drops it
    grid: Grid1D | None = field(default=None, init=False)

    def __post_init__(self):
        """A and B as float arrays, checked square and of one size (build_operators skips it)."""
        A, B = np.asarray(self.A, dtype=float), np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape != A.shape[::-1] or B.shape != A.shape:
            raise DimensionError("operator matrices must be square and equally sized")
        self.__dict__.update(A=A, B=B)

    def __getattr__(self, name: str) -> np.ndarray:
        """A or B of a build_operators pair: the first read of either forms and keeps both."""
        if name not in ("A", "B") or self.grid is None:
            raise AttributeError(f"'OperatorPair' object has no attribute {name!r}")
        self.__dict__.update(zip("AB", self._stencils()))
        return self.__dict__[name]

    def _stencils(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, B): the kept arrays if any, else a build_operators pair's stencils A = (nu/h^2)
        tridiag(-1, 2, -1), B = (1/2h) tridiag(-1, 0, 1) written into zeros, fresh and not kept."""
        if "A" in self.__dict__:
            return self.A, self.B
        n, h = self.grid.n_inner, self.grid.h
        a, b, i = self.nu / h ** 2, 1.0 / (2.0 * h), np.arange(n - 1)
        A, B = np.zeros((n, n)), np.zeros((n, n))
        np.fill_diagonal(A, 2.0 * a)
        A[i, i + 1] = A[i + 1, i] = -a
        B[i, i + 1], B[i + 1, i] = b, -b
        return A, B

    @cached_property
    def eigen(self) -> SymEigen | None:
        """A = Q diag(lam) Q^T by one sym_eigen, cached; None for a non-symmetric A."""
        try:
            return sym_eigen(self._stencils()[0])
        except ContractError:  # not symmetric to 1e-12 (or not finite)
            return None

    @cached_property
    def B_eigen(self) -> np.ndarray:
        """Q^T B Q, cached like eigen: a pair's given A and B must not change after first use."""
        Q = self.eigen.eigenvectors
        return Q.T @ self._stencils()[1] @ Q

    @cached_property
    def phi_memo(self) -> dict:
        """matfuncs.phi_matrices' memo for this pair's Stepper builds: tau/2 reuses tau's levels."""
        return {}


@dataclass(frozen=True)
class NormTriple:
    l1: float
    l2: float
    linf: float


def build_grid(n_inner: int) -> Grid1D:
    if n_inner < 2:
        raise ParameterError(f"need at least 2 inner points, got {n_inner}")
    h = 1.0 / (n_inner + 1)
    xs = h * np.arange(1, n_inner + 1)
    return Grid1D(n_inner=n_inner, h=h, xs=xs)


def _check_nu(nu):
    if not 0 < nu < np.inf:
        raise ParameterError(f"diffusion coefficient nu must be positive and finite, got {nu}")


def build_operators(g: Grid1D, nu: float) -> OperatorPair:
    """The testbed pair on g. It holds g and nu only; A and B are formed when first read."""
    _check_nu(nu)
    ops = object.__new__(OperatorPair)  # bypasses __init__, so A and B stay unset
    ops.__dict__.update(nu=nu, grid=g)
    return ops


def exact_eigenvalues(g: Grid1D, nu: float) -> np.ndarray:
    """A's closed-form eigenvalues lam_k = (4 nu/h^2) sin^2(k pi h/2), k = 1..n, ascending."""
    _check_nu(nu)
    k = np.arange(1, g.n_inner + 1)
    return (4.0 * nu / g.h ** 2) * np.sin(0.5 * np.pi * g.h * k) ** 2


def exact_eigen(g: Grid1D, nu: float) -> SymEigen:
    """A's closed-form DST-I eigenpairs: exact_eigenvalues, and
    Q_jk = sqrt(2h) sin(pi m/(n+1)) with m = jk mod 2(n+1) reduced before the sine."""
    lam, n, k = exact_eigenvalues(g, nu), g.n_inner, np.arange(1, g.n_inner + 1)
    sines = np.sqrt(2.0 * g.h) * np.sin(np.pi / (n + 1) * np.arange(2 * (n + 1)))
    return SymEigen(eigenvalues=lam, eigenvectors=sines[np.outer(k, k) % (2 * (n + 1))])


def dst1(X) -> np.ndarray:
    """exact_eigen's Q @ X along axis 0 (n = len(X)), the orthonormal DST-I, from one real FFT
    of [0, X, 0, ..., 0] of length 2(n+1) (Cooley & Tukey 1965; Martucci 1994)."""
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


def discrete_norms(g: Grid1D, v) -> NormTriple:
    """h-weighted l1 and l2 norms plus the max norm of a grid function."""
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_inner,):
        raise DimensionError(
            f"vector length {v.shape} does not match grid size {g.n_inner}")
    h, a = g.h, np.abs(v)
    linf = float(a.max()) if v.size else 0.0
    l1_l2 = []  # root(h sum |v|^p), rescaled by max|v| only when the plain sum overflows
    for p, root in ((1, float), (2, np.sqrt)):
        with np.errstate(over="ignore"):
            l1_l2.append(float(root(h * (a ** p).sum())))
        if l1_l2[-1] == np.inf and np.isfinite(linf):
            l1_l2[-1] = linf * float(root(h * ((a / linf) ** p).sum()))
    return NormTriple(*l1_l2, linf=linf)
