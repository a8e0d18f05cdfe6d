"""Desk-scale numerical probes of the analytical hypotheses.

Three probes: the semigroup smoothing quantity ||t^g A^g e^{-tA}||,
relative boundedness of the advection matrix by a fractional power of
the diffusion matrix, and boundedness of Fourier partial sums of the
operator combination A^{-1} B A^beta applied to a sine series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import discretize
from .convergence import ExperimentSpec, write_csv
from .errors import ContractError, ParameterError
from .matfuncs import frac_power, is_symmetric

TREND_FACTOR = 1.05
_POWER_ITERS, _POWER_TOL = 50, 1e-10  # operator_2norm's power iteration

# Control grids of the three probes as run from the CLI and the scripts.
DEFAULT_SMOOTHING_TIMES = tuple(2.0 ** -k for k in range(12, -1, -1))
DEFAULT_RELBOUND_SIZES = (25, 50, 100, 200, 399)
DEFAULT_FOURIER_LENGTHS = tuple(2 ** k for k in range(6, 15))


def bounded_trend(values) -> bool:
    """Last value at most 1.05x the median of the earlier values.

    A stagnation rule over the sampled control values, not a proof of
    boundedness: a sequence that converges slowly can read unbounded. The
    Fourier case (beta=0.49, linf, 1/k) reads unbounded under it, although
    its coefficients are absolutely summable (|a_k| ~ k^-1.02), so its
    partial sums are bounded.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return True
    return bool(v[-1] <= TREND_FACTOR * np.median(v[:-1]))


@dataclass(frozen=True)
class ProbeReport:
    grid: np.ndarray       # strictly increasing control parameter
    values: np.ndarray     # measured quantity per grid point
    max_value: float
    bounded: bool
    label: str = ""

    def to_csv(self, path):
        lines = ["grid_value,quantity"]
        for g, v in zip(self.grid, self.values):
            lines.append(f"{g:.17g},{v:.17g}")
        lines.append(f"# verdict={'bounded' if self.bounded else 'unbounded'} "
                     f"max={self.max_value:.17g} label={self.label}")
        write_csv("\n".join(lines) + "\n", path)


def _check_grid(grid, name):
    """grid as floats; ParameterError unless non-empty, finite, positive and increasing."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or not (g.size and np.isfinite(g).all() and g[0] > 0 and np.all(np.diff(g) > 0)):
        raise ParameterError(f"{name} must be finite, positive and strictly increasing, "
                             f"got {g.tolist()}")
    return g


def _check_sizes(sizes, name):
    """_check_grid of sizes, which must also be integers (64.0 is one)."""
    g = _check_grid(sizes, name)
    if np.any(g != np.round(g)):
        raise ParameterError(f"{name} must hold integers, got {g.tolist()}")
    return g


def _report(grid, values, label):
    values = np.asarray(values, dtype=float)
    return ProbeReport(grid=grid, values=values, max_value=float(values.max()),
                       bounded=bounded_trend(values), label=label)


def smoothing_probe(ops: discretize.OperatorPair, gamma: float,
                    t_grid: Sequence[float]) -> ProbeReport:
    """Spectral value of ||t^g A^g e^{-tA}||_2 over a grid of times.

    For SPD A this is max over eigenvalues of (t*lam)^g e^{-t*lam}, which
    calculus bounds by g^g e^{-g} independently of t. The quantity needs A's
    eigenvalues only: the closed form when ops.grid is set, else eigvalsh.
    """
    if not 0.0 <= gamma < np.inf:
        raise ParameterError(f"gamma must be nonnegative and finite, got {gamma}")
    t_grid = _check_grid(t_grid, "t_grid")
    lam = (discretize.exact_eigenvalues(ops.grid, ops.nu) if ops.grid is not None
           else np.linalg.eigvalsh(ops.A) if is_symmetric(ops.A) else None)
    if lam is None or lam.min() <= 0:
        raise ContractError("smoothing probe requires a symmetric positive definite A")
    values = [float(((t * lam) ** gamma * np.exp(-t * lam)).max()) for t in t_grid]
    return _report(t_grid, values, f"smoothing gamma={gamma:g}")


def operator_2norm(M) -> float:
    """Largest singular value via power iteration on M^T M."""
    M = np.asarray(M, dtype=float)
    G = M.T @ M
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITERS):
        w = G @ v
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= _POWER_TOL * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))


def relative_boundedness_probe(gamma: float, n_list: Sequence[int],
                               nu: float = ExperimentSpec.nu) -> ProbeReport:
    """max(||B A^-g||_2, ||A^-g B||_2) on the testbed across grid sizes, with A^-g
    from A's closed-form eigenpairs and both products from B's stencil."""
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    n_list = _check_sizes(n_list, "n_list")
    values = []
    for n in n_list:
        g = discretize.build_grid(int(n))
        A_neg_g = frac_power(discretize.exact_eigen(g, nu), -gamma)
        B_A, A_B = discretize.apply_B(g, A_neg_g), -discretize.apply_B(g, A_neg_g.T).T
        values.append(max(operator_2norm(B_A), operator_2norm(A_B)))
    return _report(n_list, values, f"relbound gamma={gamma:g}")


def sine_coefficients_initial_data(k):
    """Sine-series coefficients of 4x(1-x): 32/(k^3 pi^3) for odd k, else 0."""
    k = np.asarray(k, dtype=float)
    return np.where(k % 2 == 1, 32.0 / (k ** 3 * np.pi ** 3), 0.0)


def worst_case_coefficients(k):
    """The generic decay rate 1/k admitted for any bounded odd extension."""
    return 1.0 / np.asarray(k, dtype=float)


def fourier_beta_probe(coeffs: Callable, beta: float, N_list: Sequence[int],
                       norm: str = "linf", x_grid: int = 2048) -> ProbeReport:
    """Partial sums of sum_k f_k (k pi)^(2b-1) (cos(k pi x) + (1-(-1)^k) x - 1).

    coeffs maps an integer array of indices k to the coefficients f_k.
    The requested discrete norm of the partial sum is reported for each
    truncation length N. On the grid x_j = j/(M-1), M = x_grid, cos(k pi x_j)
    has period L = 2(M-1) in k: the coefficients are folded by k mod L and
    each N takes one real FFT of length L (Cooley & Tukey 1965), in memory
    O(M + largest step of N_list). The report's `bounded` is `bounded_trend`
    over the sampled lengths, a stagnation rule and not a proof: (beta=0.49,
    linf, 1/k) reads unbounded although its series is absolutely summable.
    """
    p = {"l1": 1, "l2": 2, "linf": np.inf}.get(norm)
    if p is None:
        raise ParameterError(f"norm must be l1, l2 or linf, got {norm!r}")
    if not np.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta}")
    if x_grid < 1000:
        raise ParameterError(f"need at least 1000 evaluation points, got {x_grid}")
    grid = _check_sizes(N_list, "N_list")
    N_list = [int(N) for N in grid]
    x = np.linspace(0.0, 1.0, x_grid)
    h = 1.0 / (x_grid - 1)
    L = 2 * (x_grid - 1)
    folded = np.zeros(L)  # sum of a_k over k = r mod L; L is even, so r keeps k's parity
    values = []
    for k_prev, N in zip([0] + N_list, N_list):
        k = np.arange(k_prev + 1, N + 1)
        a = np.asarray(coeffs(k), dtype=float) * (k * np.pi) ** (2.0 * beta - 1.0)
        folded += np.bincount(k % L, weights=a, minlength=L)
        S = np.fft.rfft(folded).real + 2.0 * folded[1::2].sum() * x - folded.sum()
        values.append(h ** (1.0 / p) * np.linalg.norm(S, p))  # h-weighted l1, l2; max
    return _report(grid, values, f"fourier beta={beta:g} norm={norm}")
