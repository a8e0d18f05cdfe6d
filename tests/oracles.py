"""Closed forms that the tests check exprk against and that exprk itself does not use."""

import numpy as np

from exprk.discretize import Grid1D, exact_eigenvalues
from exprk.matfuncs import SymEigen


def exact_eigen(g: Grid1D, nu: float) -> SymEigen:
    """A's closed-form DST-I eigenpairs: exact_eigenvalues, and
    Q_jk = sqrt(2h) sin(pi m/(n+1)) with m = jk mod 2(n+1) reduced before the sine."""
    lam, n, k = exact_eigenvalues(g, nu), g.n_inner, np.arange(1, g.n_inner + 1)
    sines = np.sqrt(2.0 * g.h) * np.sin(np.pi / (n + 1) * np.arange(2 * (n + 1)))
    return SymEigen(eigenvalues=lam, eigenvectors=sines[np.outer(k, k) % (2 * (n + 1))])
