"""Smoothing, relative-boundedness and Fourier-sum probes."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprk import discretize, matfuncs, probes
from exprk.convergence import NORMS
from exprk.discretize import OperatorPair, build_grid, build_operators
from exprk.errors import ContractError, DomainError, ParameterError
from exprk.matfuncs import frac_power, sym_eigen
from exprk.probes import (DEFAULT_SMOOTHING_TIMES, TREND_FACTOR, ProbeReport, bounded_trend,
                          fourier_beta_probe, operator_2norm,
                          relative_boundedness_probe,
                          sine_coefficients_initial_data, smoothing_probe,
                          worst_case_coefficients)
from oracles import exact_eigen

T_GRID = [2.0 ** -k for k in range(12, -1, -1)]


def make_ops(n=50, nu=0.2):
    return build_operators(build_grid(n), nu)


# --------------------------------------------------------- bounded_trend

def test_bounded_trend_flat_and_decay():
    assert bounded_trend([3.0, 3.0, 3.0, 3.0])
    assert bounded_trend([4.0, 2.0, 1.0, 0.5])


def test_bounded_trend_growth():
    assert not bounded_trend([1.0, 2.0, 4.0, 8.0])


def test_bounded_trend_threshold_exact():
    # last value exactly at factor x median still counts as bounded
    assert bounded_trend([1.0, 1.0, 1.0, TREND_FACTOR])
    assert not bounded_trend([1.0, 1.0, 1.0, TREND_FACTOR + 1e-9])


def np_median_trend(values):
    """bounded_trend's former rule, by np.median."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the middle pair's sum may overflow, as in bounded_trend
        return True if v.size < 2 else bool(v[-1] <= TREND_FACTOR * np.median(v[:-1]))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16))
def test_bounded_trend_matches_np_median_rule(values):
    assert bounded_trend(values) == np_median_trend(values)


def test_bounded_trend_matches_np_median_rule_on_probe_like_sequences():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        v = np.exp(rng.normal(0.0, 0.05, int(rng.integers(2, 16))).cumsum())
        assert bounded_trend(v) == np_median_trend(v)


def test_bounded_trend_takes_no_np_median(monkeypatch):
    # np.median's first call imports numpy.ma, ~1.2 MB resident in a probe run
    def never(*args, **kwargs):
        raise AssertionError("bounded_trend called np.median")
    monkeypatch.setattr(np, "median", never)
    assert bounded_trend([3.0, 1.0, 2.0, 2.1]) and not bounded_trend([1.0, 2.0, 4.0, 8.0])


def test_bounded_trend_short_inputs():
    assert bounded_trend([])
    assert bounded_trend([7.0])


# -------------------------------------------------------- operator norm

def test_operator_2norm_diagonal():
    assert operator_2norm(np.diag([3.0, -5.0, 1.0])) == pytest.approx(5.0, rel=1e-9)


def test_operator_2norm_matches_svd():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((20, 20))
    assert operator_2norm(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[0],
                                              rel=1e-5)


def test_operator_2norm_zero():
    assert operator_2norm(np.zeros((4, 4))) == 0.0


def _operator_2norm_before_the_shared_loop(M):
    """operator_2norm as it was written before it called the probes' shared power loop."""
    M = np.asarray(M, dtype=float)
    G = M.T @ M
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(50):
        w = G @ v
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= 1e-10 * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))


@pytest.mark.parametrize("M", [
    np.diag([3.0, -5.0, 1.0]), np.random.default_rng(2).standard_normal((20, 20)),
    np.zeros((4, 4)), np.random.default_rng(50).standard_normal((50, 50)),
], ids=["diagonal", "svd20", "zero", "seeded50"])
def test_operator_2norm_keeps_its_floats(M):
    assert operator_2norm(M) == _operator_2norm_before_the_shared_loop(M)


# ------------------------------------------------------- smoothing probe

@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_smoothing_probe_calculus_envelope(gamma):
    rep = smoothing_probe(make_ops(), gamma, T_GRID)
    assert rep.max_value <= gamma ** gamma * np.exp(-gamma) + 1e-12
    assert rep.bounded


def test_smoothing_probe_scalar_attains_envelope():
    # with a single eigenvalue lam, the max over the grid containing
    # t = gamma/lam equals the calculus bound exactly
    gamma, lam = 0.5, 2.0
    ops = OperatorPair(A=np.array([[lam]]), B=np.zeros((1, 1)), nu=0.0)
    rep = smoothing_probe(ops, gamma, [0.1, gamma / lam, 1.0])
    assert rep.max_value == pytest.approx(gamma ** gamma * np.exp(-gamma), rel=1e-13)


def test_smoothing_probe_gamma_zero():
    # gamma = 0 reduces to ||e^{-tA}||_2 = e^{-t lam_min}, largest at the
    # smallest time in the grid
    ops = make_ops()
    rep = smoothing_probe(ops, 0.0, T_GRID)
    lam_min = np.linalg.eigvalsh(ops.A).min()
    assert rep.max_value == pytest.approx(np.exp(-T_GRID[0] * lam_min), rel=1e-12)
    assert rep.max_value < 1.0


def test_smoothing_probe_large_gamma_is_finite_and_within_the_envelope():
    """(t lam)^100 e^{-t lam} once read inf * 0 = nan in the stiff modes."""
    rep = smoothing_probe(make_ops(399), 100.0, DEFAULT_SMOOTHING_TIMES)
    assert np.isfinite(rep.values).all()
    assert 0.0 < rep.max_value <= np.exp(100.0 * np.log(100.0) - 100.0) * (1 + 1e-12)


@pytest.mark.parametrize("gamma, want", [(0.0, 1.0), (0.5, 0.0)])
def test_smoothing_probe_where_t_lam_underflows_to_zero(gamma, want):
    """x^g e^{-x} at x = 0: 1 for g = 0, 0 for g > 0, with no nan from log(0)."""
    ops = OperatorPair(A=np.array([[0.25]]), B=np.zeros((1, 1)), nu=0.0)
    assert 5e-324 * 0.25 == 0.0
    assert smoothing_probe(ops, gamma, [5e-324]).values.tolist() == [want]


def test_smoothing_probe_rejects_negative_gamma():
    with pytest.raises(ParameterError):
        smoothing_probe(make_ops(), -0.1, T_GRID)


def test_smoothing_probe_rejects_unordered_grid():
    with pytest.raises(ParameterError):
        smoothing_probe(make_ops(), 0.5, [1.0, 0.5, 2.0])


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_smoothing_probe_matches_dense_spectrum(gamma):
    # oracle: the same formula on eigvalsh of the stencil matrix, which the
    # probe never computes for a pair from build_operators
    ops = build_operators(build_grid(399), 0.2)
    lam = np.linalg.eigvalsh(ops.A)
    ref = np.array([((t * lam) ** gamma * np.exp(-t * lam)).max()
                    for t in DEFAULT_SMOOTHING_TIMES])
    got = smoothing_probe(ops, gamma, DEFAULT_SMOOTHING_TIMES).values
    assert np.all(np.abs(got - ref) <= 1e-10 * ref)


def test_smoothing_probe_testbed_pair_decomposes_nothing(monkeypatch):
    ops = make_ops()

    def never(*args, **kwargs):
        raise AssertionError("smoothing probe decomposed a testbed matrix")
    monkeypatch.setattr(np.linalg, "eigh", never)
    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    rep = smoothing_probe(ops, 0.5, T_GRID)
    assert rep.values.shape == (len(T_GRID),) and rep.bounded


def test_smoothing_probe_needs_no_eigenvectors(monkeypatch):
    # a hand-built pair has no grid: one eigvalsh, no eigh, and the values of
    # the closed form for the same matrix
    ops = make_ops()
    calls = []

    def counted(A, real=np.linalg.eigvalsh):
        calls.append(A.shape)
        return real(A)

    def never(*args, **kwargs):
        raise AssertionError("smoothing probe computed eigenvectors")
    closed = smoothing_probe(ops, 0.5, T_GRID).values
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(np.linalg, "eigh", never)
    rep = smoothing_probe(OperatorPair(A=ops.A, B=ops.B, nu=ops.nu), 0.5, T_GRID)
    assert calls == [ops.A.shape]
    assert rep.bounded and np.all(np.abs(rep.values - closed) <= 1e-10 * closed)


def test_smoothing_probe_memory_is_linear_in_n():
    # the testbed pair's dense A and B at n = 16383 would take 2.1 GB each
    tracemalloc.start()
    try:
        rep = smoothing_probe(build_operators(build_grid(16383), 0.2), 0.5,
                              DEFAULT_SMOOTHING_TIMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert rep.bounded and rep.max_value <= 0.5 ** 0.5 * np.exp(-0.5)


@pytest.mark.parametrize("split", ["non-symmetric", "indefinite"])
def test_smoothing_probe_rejects_non_spd(split):
    ops = make_ops()
    A = ops.A - 0.5 * ops.B if split == "non-symmetric" else -ops.A
    with pytest.raises(ContractError, match="symmetric positive definite"):
        smoothing_probe(OperatorPair(A=A, B=ops.B, nu=ops.nu), 0.5, T_GRID)


# ------------------------------------------------- relative boundedness

def test_relbound_gamma_one_bounded():
    # full-strength relative bound: values settle near a constant ~1.6
    rep = relative_boundedness_probe(1.0, [25, 50, 100, 200])
    assert rep.bounded
    assert rep.max_value <= 1.7


def test_relbound_gamma_half_bounded():
    rep = relative_boundedness_probe(0.5, [25, 50, 100, 200, 399])
    assert rep.bounded
    assert rep.max_value <= 2.3  # plateau near 1/sqrt(nu) ~ 2.24


def test_relbound_gamma_tenth_unbounded():
    rep = relative_boundedness_probe(0.1, [25, 50, 100, 200, 399])
    assert not rep.bounded
    assert rep.values[-1] > 1.5 * rep.values[0]


def test_probes_validate_grids_before_any_work(monkeypatch):
    ops = make_ops(10)  # built before the traps are set

    def never(*args, **kwargs):
        raise AssertionError("work done before the grid was checked")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, never)
    for name in ("build_operators", "apply_B", "dst1"):
        monkeypatch.setattr(discretize, name, never)
    for t_grid in ([1.0, 0.5, 2.0], [0.5, 0.5], [0.0, 1.0], [-1.0, 1.0], []):
        with pytest.raises(ParameterError, match="t_grid"):
            smoothing_probe(ops, 0.5, t_grid)
    for n_list in ([399, 200, 25], [25, 25], [0, 25], []):
        with pytest.raises(ParameterError, match="n_list"):
            relative_boundedness_probe(0.5, n_list)


def test_relbound_needs_no_eigh_and_no_dense_B(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("relbound probe reached eigh, the dense operators, Q or A^-g")
    monkeypatch.setattr(np.linalg, "eigh", never)
    monkeypatch.setattr(discretize, "build_operators", never)
    monkeypatch.setattr(matfuncs, "frac_power", never)
    monkeypatch.setattr(probes, "operator_2norm", never)
    apply_B = discretize.apply_B

    def apply_B_to_vectors_only(g, X):
        assert np.ndim(X) == 1, "relbound probe applied B to a matrix"
        return apply_B(g, X)
    monkeypatch.setattr(discretize, "apply_B", apply_B_to_vectors_only)
    rep = relative_boundedness_probe(0.5, [25, 50])
    assert rep.values.shape == (2,) and np.all(rep.values > 0)


@pytest.mark.parametrize("n", [2, 3, 10, 25, 64, 399])
def test_BtB_closed_form_in_the_dst_basis(n):
    # B^T B = b^2 (Q L Q - 2 e_1 e_1^T - 2 e_n e_n^T), b = 1/(2h), L = diag(4 sin^2(k pi h)),
    # checked against the dense stencil matrices
    g = build_grid(n)
    B = build_operators(g, 0.2).B
    Q = exact_eigen(g, 0.2).eigenvectors
    L = 4.0 * np.sin(np.pi * g.h * np.arange(1, n + 1)) ** 2
    closed = (Q * L) @ Q
    closed[0, 0] -= 2.0
    closed[-1, -1] -= 2.0
    closed *= (0.5 / g.h) ** 2
    dense = B.T @ B
    assert np.abs(closed - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.77, 1.0])
def test_relbound_matches_dense_eigh_path(gamma):
    # oracle: the dense operators, eigh and GEMMs against B, on odd and even n
    ns = [25, 50, 99, 100]
    for nu in (0.2, 1.0):
        ref = []
        for n in ns:
            ops = build_operators(build_grid(n), nu)
            A_neg_g = frac_power(sym_eigen(ops.A), -gamma)
            ref.append(max(operator_2norm(ops.B @ A_neg_g), operator_2norm(A_neg_g @ ops.B)))
        got = relative_boundedness_probe(gamma, ns, nu).values
        assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), nu


def _relbound_before_the_lockstep(gamma, n_list, nu):
    """The relbound probe's values as computed before the lockstep: one size at a time, from
    the gathered n x n Q, with one power loop per iteration."""
    def power(apply, y, measure):
        lam = 0.0
        for _ in range(50):
            w = apply(y)
            lam, lam_old = measure(y, w), lam
            if lam == 0.0 or abs(lam - lam_old) <= 1e-10 * lam:
                break
            y = w / lam
        return np.sqrt(lam)
    values = []
    for n in n_list:
        g = build_grid(n)
        E, b2 = exact_eigen(g, nu), (0.5 / g.h) ** 2
        v0 = np.random.default_rng(12345).standard_normal(n)
        v0 /= np.linalg.norm(v0)
        Q, d = E.eigenvectors, E.eigenvalues ** -gamma
        u1, un = d * Q[:, 0], d * Q[:, -1]
        s = (2.0 / g.h) * b2 * u1 * u1

        def gram(y):
            return s * y - 2.0 * b2 * (u1 * (u1 @ y) + un * (un @ y))
        values.append(max(power(gram, Q @ v0, lambda y, w: np.linalg.norm(w)),
                          power(gram, d * (Q @ -discretize.apply_B(g, v0)),
                                lambda y, w: np.sqrt(y @ w))))
    return np.array(values)


@pytest.mark.parametrize("nu", [0.2, 1.0])
@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.77, 1.0])
def test_relbound_lockstep_matches_the_per_size_loop(gamma, nu):
    ns = [2, 3, 25, 50, 99, 100, 200, 399]
    ref = _relbound_before_the_lockstep(gamma, ns, nu)
    got = relative_boundedness_probe(gamma, ns, nu).values
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
def test_relbound_sizes_do_not_move_each_other(gamma):
    # each size's rows only share the block: another size changes its padding, not its value
    few = relative_boundedness_probe(gamma, [25, 50, 100]).values
    more = relative_boundedness_probe(gamma, [2, 25, 50, 99, 100, 399]).values[[1, 2, 4]]
    assert np.all(np.abs(more - few) <= 1e-15 * few)


def test_relbound_memory_is_linear_in_n():
    # a dense Q at n = 16383 alone would take 2.1 GB
    tracemalloc.start()
    try:
        rep = relative_boundedness_probe(0.5, [25, 16383])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert rep.bounded and rep.max_value <= 1 / np.sqrt(0.2)


@pytest.mark.parametrize("nu", [0.2, 1.0])
@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.77, 1.0])
def test_relbound_never_reads_above_the_dense_svd(gamma, nu):
    # the power-iteration estimate can only read low (at gamma = 0.1 it has not settled)
    ns = [2, 3, 25, 64, 200]
    exact = []
    for n in ns:
        ops = build_operators(build_grid(n), nu)
        lam, V = np.linalg.eigh(ops.A)
        A_neg_g = (V * lam ** -gamma) @ V.T
        exact.append(max(np.linalg.svd(M, compute_uv=False)[0]
                         for M in (ops.B @ A_neg_g, A_neg_g @ ops.B)))
    got = relative_boundedness_probe(gamma, ns, nu).values
    assert np.all(got <= np.array(exact) * (1.0 + 1e-12))


def test_relbound_rejects_bad_gamma():
    for gamma in (0.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            relative_boundedness_probe(gamma, [25, 50])


# -------------------------------------------------- Fourier coefficients

def test_sine_coefficients_match_quadrature():
    # oracle: f_k = 2 int_0^1 4x(1-x) sin(k pi x) dx by Simpson's rule
    x = np.linspace(0.0, 1.0, 20001)
    w = np.ones_like(x)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (x[1] - x[0]) / 3.0
    f = 4.0 * x * (1.0 - x)
    for k in range(1, 8):
        quad = 2.0 * float(w @ (f * np.sin(k * np.pi * x)))
        assert sine_coefficients_initial_data(k) == pytest.approx(quad, abs=1e-12)


def test_worst_case_coefficients():
    assert np.allclose(worst_case_coefficients(np.array([1, 2, 4])),
                       [1.0, 0.5, 0.25])


# ------------------------------------------------------- Fourier probe

def test_fourier_probe_zero_coefficients():
    rep = fourier_beta_probe(lambda k: np.zeros_like(k, dtype=float), 0.4,
                             [4, 8, 16], "linf")
    assert rep.max_value == 0.0 and rep.bounded


def test_fourier_probe_incremental_matches_direct():
    # running over [8, 32] must give the same final sum as [32] alone
    co = sine_coefficients_initial_data
    a = fourier_beta_probe(co, 0.45, [8, 32], norm="l2")
    b = fourier_beta_probe(co, 0.45, [32], norm="l2")
    assert a.values[-1] == pytest.approx(b.values[0], rel=1e-13)


def test_fourier_probe_linearity_in_coefficients():
    co = sine_coefficients_initial_data
    a = fourier_beta_probe(lambda k: 3.0 * co(k), 0.4, [16], norm="linf")
    b = fourier_beta_probe(co, 0.4, [16], norm="linf")
    assert a.values[0] == pytest.approx(3.0 * b.values[0], rel=1e-13)


def test_fourier_probe_single_mode_closed_form():
    # only k=1: term is a (cos(pi x) + 2x - 1) with a = pi^(2b-1)
    beta = 0.3
    co = lambda k: np.where(k == 1, 1.0, 0.0)
    rep = fourier_beta_probe(co, beta, [1], norm="linf", x_grid=4001)
    a = np.pi ** (2.0 * beta - 1.0)
    x = np.linspace(0.0, 1.0, 4001)
    exact = np.abs(a * (np.cos(np.pi * x) + 2.0 * x - 1.0)).max()
    assert rep.values[0] == pytest.approx(exact, rel=1e-13)


def test_fourier_probe_smooth_data_bounded():
    rep = fourier_beta_probe(sine_coefficients_initial_data, 0.49,
                             [2 ** j for j in range(6, 13)], norm="linf")
    assert rep.bounded


def direct_fourier_values(coeffs, beta, N_list, norm, x_grid):
    """The probe's former direct sum, cos(outer(x, k pi)) @ a, as an oracle.

    Blocks of k are cut to at most 1024 indices to bound the oracle's memory.
    """
    x = np.linspace(0.0, 1.0, x_grid)
    h = 1.0 / (x_grid - 1)
    S = np.zeros_like(x)
    values = []
    k_prev = 0
    for N in N_list:
        for lo in range(k_prev + 1, N + 1, 1024):
            k = np.arange(lo, min(lo + 1024, N + 1))
            a = coeffs(k) * (k * np.pi) ** (2.0 * beta - 1.0)
            S = S + np.cos(np.outer(x, k * np.pi)) @ a + 2.0 * a[k % 2 == 1].sum() * x - a.sum()
        k_prev = N
        m = np.abs(S).max()  # l2 of S / m, scaled back, so S ** 2 cannot overflow
        values.append({"l1": h * np.abs(S).sum(), "l2": m * np.sqrt(h * ((S / m) ** 2).sum()),
                       "linf": m}[norm])
    return np.array(values)


@pytest.mark.parametrize("x_grid", [1000, 1001, 2048])
@pytest.mark.parametrize("coeffs", [sine_coefficients_initial_data, worst_case_coefficients])
@pytest.mark.parametrize("beta,norm",
                         [(-0.01, "l1"), (0.24, "l2"), (0.49, "linf"), (20.0, "l2")])
def test_fourier_probe_fold_matches_direct_sum(x_grid, coeffs, beta, norm):
    # cos(k pi x_j) has period L = 2(x_grid - 1) in k; N runs past 2L, so
    # the fold wraps twice, with lengths on either side of the first wrap.
    # At beta = 20, l2 passes sqrt(max float) ~ 1.3e154 in 4 of the 6 cases: h sum S^2 overflows.
    L = 2 * (x_grid - 1)
    N_list = [3, 64, L - 1, L, L + 1, 2 * L + 5]
    rep = fourier_beta_probe(coeffs, beta, N_list, norm, x_grid=x_grid)
    oracle = direct_fourier_values(coeffs, beta, N_list, norm, x_grid)
    assert np.allclose(rep.values, oracle, rtol=1e-12, atol=0.0)


def test_fourier_probe_validates_N_list_before_summing():
    def never(k):
        raise AssertionError("coefficients evaluated before N_list was checked")
    for N_list in ([0, 8], [-4], [16, 8], [8, 8], []):
        with pytest.raises(ParameterError, match="N_list"):
            fourier_beta_probe(never, 0.4, N_list, "linf")


def test_probes_reject_sizes_that_are_not_integers():
    """A size is never truncated: 10.7 used to report grid 10.7 and compute n = 10."""
    with pytest.raises(ParameterError, match="n_list must hold integers"):
        relative_boundedness_probe(0.5, [10.7, 20.2])
    with pytest.raises(ParameterError, match="N_list must hold integers"):
        fourier_beta_probe(sine_coefficients_initial_data, 0.2, [64.9, 128.5], "linf")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("probe, name, grid", [
    (lambda grid: smoothing_probe(make_ops(20), 0.5, grid), "t_grid", [0.1]),
    (lambda grid: relative_boundedness_probe(0.5, grid), "n_list", [10]),
    (lambda grid: fourier_beta_probe(sine_coefficients_initial_data, 0.2, grid, "linf"),
     "N_list", [10]),
], ids=["smoothing", "relbound", "fourier"])
def test_probes_reject_non_finite_grid_entries(probe, name, grid, bad):
    """NaN used to read as max=nan, unbounded; inf as that or an OverflowError."""
    for entries in (grid + [bad], [bad]):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            probe(entries)


@pytest.mark.parametrize("probe, label, first", [
    (lambda: relative_boundedness_probe(0.5, [3], nu=1e-300), "relbound gamma=0.5", "3"),
    (lambda: smoothing_probe(make_ops(399), 200.0, DEFAULT_SMOOTHING_TIMES),
     "smoothing gamma=200", f"{DEFAULT_SMOOTHING_TIMES[1]:g}"),
    (lambda: fourier_beta_probe(worst_case_coefficients, 400.0, [64, 128], "linf"),
     "fourier beta=400 norm=linf", "64"),
], ids=["relbound-nu-1e-300", "smoothing-gamma-200", "fourier-beta-400"])
def test_probes_give_no_verdict_from_non_finite_values(probe, label, first):
    """Each once reported max=nan with a verdict (relbound's read bounded)."""
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match=f"^{label}: non-finite value at grid value {first}$"):
            probe()


def test_probes_take_integral_float_sizes():
    co = sine_coefficients_initial_data
    assert np.array_equal(relative_boundedness_probe(0.5, [10.0, 20.0]).values,
                          relative_boundedness_probe(0.5, [10, 20]).values)
    assert np.array_equal(fourier_beta_probe(co, 0.2, [64.0, 128.0], "linf").values,
                          fourier_beta_probe(co, 0.2, [64, 128], "linf").values)


@pytest.mark.parametrize("norm", ["sup", "l3", "L2", ""])
def test_fourier_probe_unknown_norm_lists_the_study_norms(norm):
    def never(k):
        raise AssertionError("coefficients evaluated for an unknown norm")
    want = f"norm must be one of {', '.join(NORMS)}, got {norm!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(want)}$"):
        fourier_beta_probe(never, 0.4, [8, 16], norm)


def test_fourier_probe_rejects_bad_args():
    co = sine_coefficients_initial_data
    with pytest.raises(ParameterError):
        fourier_beta_probe(co, 0.4, [8, 16], norm="sup")
    with pytest.raises(ParameterError):
        fourier_beta_probe(co, 0.4, [8, 16], "linf", x_grid=500)
    with pytest.raises(ParameterError):
        fourier_beta_probe(co, 0.4, [16, 8], "linf")


# ------------------------------------------------------------------ CSV

def test_probe_report_csv(tmp_path):
    rep = smoothing_probe(make_ops(10), 0.5, [0.25, 0.5, 1.0])
    path = tmp_path / "probe.csv"
    rep.to_csv(path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "grid_value,quantity"
    assert len(lines) == 5 and lines[-1].startswith("# verdict=bounded")
    assert "\r" not in text


def test_probe_report_csv_bad_path():
    rep = smoothing_probe(make_ops(10), 0.5, [0.25, 0.5, 1.0])
    with pytest.raises(OSError, match="no/such/dir"):
        rep.to_csv("/no/such/dir/out.csv")
