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
from .errors import ContractError, DomainError, ParameterError
from .matfuncs import is_symmetric

TREND_FACTOR = 1.05
_POWER_ITERS, _POWER_TOL = 50, 1e-10  # _power_iteration's step cap and tolerance

# Control grids of the three probes as run from the CLI and the scripts.
DEFAULT_SMOOTHING_TIMES = tuple(2.0 ** -k for k in range(12, -1, -1))
DEFAULT_RELBOUND_SIZES = (25, 50, 100, 200, ExperimentSpec.n_inner)
DEFAULT_FOURIER_LENGTHS = tuple(2 ** k for k in range(6, 15))


def bounded_trend(values) -> bool:
    """Last value at most 1.05x the median of the earlier values.

    A stagnation rule over the sampled control values, not a proof of
    boundedness: a sequence that converges slowly can read unbounded. The
    Fourier case (beta=0.49, linf, 1/k) reads unbounded under it, although
    its coefficients are absolutely summable (|a_k| ~ k^-1.02), so its
    partial sums are bounded.
    """
    v = np.asarray(values, dtype=float).ravel().tolist()
    if len(v) < 2:
        return True
    # np.median's float, without its first call's import of numpy.ma (~1.2 MB resident)
    e, m = sorted(v[:-1]), (len(v) - 1) // 2
    return v[-1] <= TREND_FACTOR * (e[m] if len(e) % 2 else (e[m - 1] + e[m]) / 2)


@dataclass(frozen=True, eq=False)
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
    """The report of values over grid; DomainError at the first non-finite value."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError(f"{label}: non-finite value at grid value "
                          f"{grid[np.argmin(np.isfinite(values))]:g}")
    return ProbeReport(grid=grid, values=values, max_value=float(values.max()),
                       bounded=bounded_trend(values), label=label)


def smoothing_probe(ops: discretize.OperatorPair, gamma: float,
                    t_grid: Sequence[float]) -> ProbeReport:
    """Spectral value of ||t^g A^g e^{-tA}||_2 over a grid of times.

    For SPD A this is max over eigenvalues of (t*lam)^g e^{-t*lam}, which
    calculus bounds by g^g e^{-g} independently of t; it is taken as
    exp(g log(t lam) - t lam), not inf * 0 in stiff modes. It needs A's
    eigenvalues only: the closed form when ops.grid is set, else eigvalsh.
    """
    if not 0.0 <= gamma < np.inf:
        raise ParameterError(f"gamma must be nonnegative and finite, got {gamma}")
    t_grid = _check_grid(t_grid, "t_grid")
    lam = (discretize.exact_eigenvalues(ops.grid, ops.nu) if ops.grid is not None
           else np.linalg.eigvalsh(ops.A) if is_symmetric(ops.A) else None)
    if lam is None or lam.min() <= 0:
        raise ContractError("smoothing probe requires a symmetric positive definite A")
    with np.errstate(divide="ignore"):  # a t lam that underflows to 0 gives 0^g = e^-inf
        values = [float(np.exp(gamma * np.log(t * lam) - t * lam if gamma else -t * lam).max())
                  for t in t_grid]
    return _report(t_grid, values, f"smoothing gamma={gamma:g}")


def _power_iteration(apply, Y, measure) -> np.ndarray:
    """sqrt(lam) per row y (last axis) of Y, stepped y <- apply(y) / lam, lam = measure(y, apply(y))
    row by row, for _POWER_ITERS steps or until its lam settles to _POWER_TOL (then that lam is
    kept as the block steps on); lam rises to apply's top eigenvalue, so reads low."""
    lam, live = np.zeros(Y.shape[:-1]), np.ones(Y.shape[:-1], dtype=bool)
    for _ in range(_POWER_ITERS):
        W = apply(Y)
        mu = measure(Y, W)
        lam_old, lam = lam, np.where(live, mu, lam)
        live &= (mu != 0.0) & (np.abs(mu - lam_old) > _POWER_TOL * mu)
        if not live.any():
            break
        Y = W / mu[..., None]
    return np.sqrt(lam)


def _unit_start(n):
    v = np.random.default_rng(12345).standard_normal(n)
    return v / np.linalg.norm(v)


def operator_2norm(M) -> float:
    """Largest singular value via power iteration on M^T M."""
    M = np.asarray(M, dtype=float)
    return float(_power_iteration((M.T @ M).__matmul__, _unit_start(M.shape[1]),
                                  lambda y, w: np.linalg.norm(w)))


def relative_boundedness_probe(gamma: float, n_list: Sequence[int],
                               nu: float = ExperimentSpec.nu) -> ProbeReport:
    """max(||B A^-g||_2, ||A^-g B||_2) across grid sizes, as power-iteration estimates (at most 50
    steps each, low where unsettled) in A's DST-I basis Q, with no n x n array. There B^T B =
    b^2 (Q L Q - 2 e_1 e_1^T - 2 e_n e_n^T), b = 1/(2h), L = diag(4 sin^2(k pi h)), so M = B A^-g
    has M^T M = Q G' Q, G' = b^2 (D^2 L - 2 u_1 u_1^T - 2 u_n u_n^T), u = D Q e, and A^-g B = -M^T
    has |M M^T v| = sqrt(y^T G' y), y = Q M^T v. The 2 len(n_list) iterations (start v =
    _unit_start(n)) step in lockstep as the rows of one zero-padded block, O(n) a row a step."""
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    n_list = _check_sizes(n_list, "n_list")
    m, N = len(n_list), int(n_list[-1])
    S, U, V = np.zeros((m, N)), np.zeros((m, N, 2)), np.zeros((m, 2, N))
    Y = np.zeros((2, m, N))  # Y[0]: M^T M from Q v, Y[1]: M M^T from Q M^T v = D Q (-B v)
    for i, n in enumerate(n_list.astype(int)):
        g, v = discretize.build_grid(n), _unit_start(n)
        d = discretize.exact_eigenvalues(g, nu) ** -gamma  # D = diag(d)
        b2 = discretize.stencil_bands(g, nu)["B"][2] ** 2
        E = np.column_stack([np.zeros((n, 2)), v, -discretize.apply_B(g, v)])
        E[[0, -1], [0, 1]] = 1.0
        QE = discretize.dst1(E)  # Q e_1, Q e_n, Q v, Q (-B v)
        U[i, :n] = d[:, None] * QE[:, :2]  # columns u_1, u_n
        V[i, :, :n] = -2.0 * b2 * U[i, :n].T
        S[i, :n] = (2.0 / g.h) * b2 * U[i, :n, 0] ** 2  # b^2 D^2 L: L = (2/h) Q_k1^2
        Y[0, i, :n], Y[1, i, :n] = QE[:, 2], d * QE[:, 3]
    by_norm = np.array([True, False])[:, None, None]  # lam = |w| for M^T M, sqrt(y . w) for M M^T

    def gram(Y):  # G' y = S y + (y . u_1, y . u_n) @ (-2 b^2 [u_1; u_n])
        return S * Y + (Y[..., None, :] @ U @ V)[..., 0, :]
    values = _power_iteration(gram, Y, lambda Y, W: np.sqrt(
        np.einsum("jmn,jmn->jm", np.where(by_norm, W, Y), W)))
    return _report(n_list, values.max(axis=0), f"relbound gamma={gamma:g}")


def sine_coefficients_initial_data(k):
    """Sine-series coefficients of 4x(1-x): 32/(k^3 pi^3) for odd k, else 0."""
    odd = np.asarray(k) % 2 == 1  # on the indices as given: an integer % beats a float one
    k = np.asarray(k, dtype=float)
    return np.where(odd, 32.0 / (k ** 3 * np.pi ** 3), 0.0)


def worst_case_coefficients(k):
    """The generic decay rate 1/k admitted for any bounded odd extension."""
    return 1.0 / np.asarray(k, dtype=float)


def fourier_beta_probe(coeffs: Callable, beta: float, N_list: Sequence[int],
                       norm: str, x_grid: int = 2048) -> ProbeReport:
    """Partial sums of sum_k f_k (k pi)^(2b-1) (cos(k pi x) + (1-(-1)^k) x - 1).

    coeffs maps an integer array of indices k to the coefficients f_k, and is
    called once, on k = 1..max(N_list). Each truncation length N reports the
    partial sum's discrete norm named by norm, a key of discretize.NORMS. On the grid
    x_j = j/(M-1), M = x_grid, cos(k pi x_j) has period L = 2(M-1) in k: the
    coefficients are folded by k mod L and each N takes one real FFT of length
    L (Cooley & Tukey 1965), in memory O(M + max(N_list)). The report's
    `bounded` is `bounded_trend` over the sampled lengths, a stagnation rule and
    not a proof: (beta=0.49, linf, 1/k) reads unbounded although its series is
    absolutely summable.
    """
    p = discretize.NORMS.get(norm)
    if p is None:
        raise ParameterError(f"norm must be one of {', '.join(discretize.NORMS)}, got {norm!r}")
    if not np.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta}")
    if x_grid < 1000:
        raise ParameterError(f"need at least 1000 evaluation points, got {x_grid}")
    grid = _check_sizes(N_list, "N_list")
    N_list = [int(N) for N in grid]
    x = np.linspace(0.0, 1.0, x_grid)
    h = 1.0 / (x_grid - 1)
    L = 2 * (x_grid - 1)
    k = np.arange(1, N_list[-1] + 1)  # every term once; each N adds those past the last N
    a = np.asarray(coeffs(k), dtype=float) * (k * np.pi) ** (2.0 * beta - 1.0)
    r = k % L
    folded = np.zeros(L)  # sum of a_k over k = r mod L; L is even, so r keeps k's parity
    values = []
    for k_prev, N in zip([0] + N_list, N_list):
        folded += np.bincount(r[k_prev:N], weights=a[k_prev:N], minlength=L)
        S = np.fft.rfft(folded).real
        S += 2.0 * folded[1::2].sum() * x
        S -= folded.sum()
        values.append(discretize.grid_norm(S, p, h))
    return _report(grid, values, f"fourier beta={beta:g} norm={norm}")
