"""Kernel tests: independent oracles for exp, phi, and the augmented matrix."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprk import matfuncs
from exprk.discretize import build_grid, build_operators
from exprk.errors import ContractError, DimensionError, DomainError, ParameterError
from exprk.matfuncs import (MAX_PHI_ORDER, SymEigen, expm, frac_power, is_symmetric,
                            phi_combination, phi_matrices, phi_matrix, phi_values,
                            sym_eigen, tridiagonal_eigen)
from oracles import exact_eigen


# ---------------------------------------------------------------- oracles

def taylor_expm(M, terms=30):
    """Horner-evaluated truncated Taylor series; valid for ||M||_1 <= 1."""
    n = M.shape[0]
    E = np.eye(n)
    for j in range(terms, 0, -1):
        E = np.eye(n) + (M / j) @ E
    return E


def phi_quadrature(k, z, nodes=10_000):
    """Composite Simpson on the integral form of phi_k (k >= 1)."""
    theta = np.linspace(0.0, 1.0, nodes + 1)
    f = np.exp((1.0 - theta) * z) * theta ** (k - 1) / math.factorial(k - 1)
    w = np.ones(nodes + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((theta[1] - theta[0]) / 3.0 * (w * f).sum())


def taylor_phi_matrix(k, M, terms=60):
    """sum_j M^j / (j+k)!; oracle for moderate-norm matrices."""
    P = np.zeros_like(M)
    T = np.eye(M.shape[0])
    for j in range(terms):
        P += T / math.factorial(j + k)
        T = T @ M
    return P


# ------------------------------------------------------------------ expm

def test_expm_zero_is_identity():
    assert np.allclose(expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_expm_diagonal():
    E = expm(np.diag([-1.0, -2.0]))
    assert np.allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-14)


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        M = rng.standard_normal((5, 5))
        M *= min(1.0, 1.0 / np.linalg.norm(M, 1))
        E = expm(M)
        ref = taylor_expm(M)
        assert np.abs(E - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_expm_keeps_subnormal_entries():
    # e^M >= I + M entrywise for M >= 0; the phi_0 chain at t = 1 scales M by
    # exactly 1, where halving M first would round 5e-324 to 0
    tiny = 5e-324
    E = expm(np.array([[0.0, tiny], [3 * tiny, 0.0]]))
    assert E[0, 1] >= tiny and E[1, 0] >= tiny


def test_expm_rejects_nonsquare():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)))


def test_expm_semigroup_on_stable_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(2, 9)
        S = rng.standard_normal((n, n))
        M = S - (np.linalg.eigvals(S).real.max() + 0.5) * np.eye(n)
        E2 = expm(2.0 * M)
        resid = np.abs(expm(M) @ expm(M) - E2).max()
        assert resid <= 1e-9 * max(1.0, np.abs(E2).max())


def test_expm_large_norm_scaling():
    # scaling must keep accuracy for well-conditioned large-norm input
    M = np.diag([-200.0, -100.0, -1.0])
    assert np.allclose(expm(M), np.diag(np.exp([-200.0, -100.0, -1.0])), rtol=1e-12)


# ------------------------------------------------------------------- phi

def test_phi_trivial_values():
    assert float(phi_values(1, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(phi_values(1, 1.0)) == pytest.approx(np.e - 1.0, rel=1e-14)
    for k in range(5):
        assert float(phi_values(k, 0.0)) == pytest.approx(1.0 / math.factorial(k),
                                                          rel=1e-15)


def test_phi_against_quadrature_oracle():
    assert float(phi_values(3, -0.05)) == pytest.approx(phi_quadrature(3, -0.05),
                                                        abs=1e-14)
    for k in (1, 2, 4):
        for z in (-0.3, -2.0, 0.7):
            assert float(phi_values(k, z)) == pytest.approx(phi_quadrature(k, z), abs=1e-12)


def test_phi_recursion_identity():
    rng = np.random.default_rng(3)
    zs = rng.uniform(-50.0, 0.0, size=100)
    for z in zs:
        for k in range(4):
            pk = float(phi_values(k, z))
            resid = abs(z * float(phi_values(k + 1, z)) - (pk - 1.0 / math.factorial(k)))
            assert resid <= 1e-12 * max(1.0, abs(pk))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-50.0, max_value=-1e-6), st.integers(min_value=0, max_value=3))
def test_phi_recursion_property(z, k):
    pk = float(phi_values(k, z))
    resid = abs(z * float(phi_values(k + 1, z)) - (pk - 1.0 / math.factorial(k)))
    assert resid <= 1e-12 * max(1.0, abs(pk))


def test_phi_order_limits():
    with pytest.raises(ParameterError):
        phi_values(9, 1.0)


# ------------------------------------------------------------ phi_matrix

def test_phi_matrix_zero_matrix():
    assert np.allclose(phi_matrix(1, np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_phi_matrix_diagonal_case():
    D = np.diag([-0.3, -4.0])
    P = phi_matrix(2, D)
    want = [float(phi_values(2, -0.3)), float(phi_values(2, -4.0))]
    assert np.allclose(P, np.diag(want), rtol=1e-13)


def test_phi_matrix_defining_identity():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    P = phi_matrix(1, M)
    resid = np.abs(M @ P - (expm(M) - np.eye(4))).max()
    assert resid <= 1e-10


def test_phi_matrix_similarity_invariance():
    # phi_k(D M D^-1) = D phi_k(M) D^-1: the chains must agree on a symmetric
    # M and on its non-symmetric diagonal similarity transform.
    rng = np.random.default_rng(9)
    S = rng.standard_normal((6, 6))
    M = -(S @ S.T + np.eye(6))  # negated SPD, the stepping-relevant sign
    d = rng.uniform(0.5, 2.0, 6)
    for k in range(9):
        moved = d[:, None] * phi_matrix(k, M) / d
        direct = phi_matrix(k, d[:, None] * M / d)
        assert np.abs(moved - direct).max() <= 1e-9 * max(1.0, np.abs(moved).max())


def phi_decimal(k, z):
    """phi_k(z) in 60-digit decimal arithmetic, rounded to float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        z = decimal.Decimal(float(z))
        if abs(z) < 1:
            return float(sum(z ** j / math.factorial(j + k) for j in range(60)))
        head = sum(z ** j / math.factorial(j) for j in range(k))
        return float((z.exp() - head) / z ** k)


def test_phi_values_against_decimal_oracle():
    # |z| from 1e-4 to 100 on both sides, with points around the Taylor cutoff 3
    mag = np.concatenate([np.geomspace(1e-4, 100.0, 60), [2.999, 3.0, 3.001]])
    z = np.concatenate([-mag, mag])
    for k in range(MAX_PHI_ORDER + 1):
        ref = np.array([phi_decimal(k, x) for x in z])
        err = np.abs(phi_values(k, z) - ref) / np.abs(ref)
        assert err.max() <= 1e-13, (k, z[err.argmax()], err.max())


def test_phi_matrices_against_decimal_oracle():
    # M = S diag(d) S^-1, so phi_k(M) = S diag(phi_k(d)) S^-1: a non-symmetric
    # M with cond(S) = 2, and a symmetric one with S orthogonal.
    rng = np.random.default_rng(17)
    n = 6
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sigma = np.linspace(1.0, 2.0, n)
    bases = {"nonsymmetric": ((U * sigma) @ V.T, (V / sigma) @ U.T), "symmetric": (U, U.T)}
    ts = (1.0, 0.5, 0.25)  # one power-of-two family: one shared chain per call
    for kind, (S, S_inv) in bases.items():
        for top in (1e-2, 1.0, 1e2, 1e4):
            d = -top * np.geomspace(1e-3, 1.0, n)
            M = (S * d) @ S_inv
            table = phi_matrices(M, {(k, t) for k in range(MAX_PHI_ORDER + 1) for t in ts})
            for k in range(MAX_PHI_ORDER + 1):
                for t in ts:
                    ref = (S * [phi_decimal(k, t * x) for x in d]) @ S_inv
                    for got in (table[k, t], phi_matrix(k, t * M)):
                        err = np.abs(got - ref).max()
                        assert err <= 2e-12 * np.abs(ref).max(), (kind, top, k, t)


def test_phi_matrices_shared_chains_match_one_key_calls():
    # t = 1, 1/2, 1/4 form one family (one chain each for phi_0 and phi_1..3);
    # 1/3, 0 and -1 are families of their own. ||M/4||_1 = 10 keeps every
    # member of the first family above both chains' bases.
    rng = np.random.default_rng(23)
    M = rng.standard_normal((8, 8))
    M *= 40.0 / np.linalg.norm(M, 1)
    orders = {1.0: 3, 0.5: 2, 0.25: 3, 1.0 / 3.0: 2, 0.0: 2, -1.0: 1}
    table = phi_matrices(M, {(k, t) for t, top in orders.items() for k in range(top + 1)})
    chain_kmax = {t: 3 if t in (1.0, 0.5, 0.25) else top for t, top in orders.items()}
    for (k, t), got in table.items():
        alone = phi_matrices(M, {(k, t)})[k, t]
        if k in (0, chain_kmax[t]):  # the same base, level and Horner length
            assert np.array_equal(got, alone), (k, t)
        else:  # the Horner pass ran chain_kmax[t] + 20 terms, not k + 20
            assert np.abs(got - alone).max() <= 1e-15 * np.abs(alone).max(), (k, t)
    for k in range(3):
        assert np.array_equal(table[k, 0.0], np.eye(8) / math.factorial(k))


def out_of_place_phi_levels(Y, kmax):
    """_phi_levels as plain out-of-place formulas: Horner from P = 0 and a fresh
    sum per doubling; the in-place chain must give its values bit for bit."""
    I = np.eye(Y.shape[0])
    P, phis = np.zeros_like(Y), []
    for j in range(kmax + 19, -1, -1):
        P = Y @ P + I / math.factorial(j)
        if j <= kmax:
            phis.insert(0, P)
    while True:
        yield phis
        phis = [(phis[0] @ phis[j]
                 + sum(phis[i] / math.factorial(j - i) for i in range(1, j + 1))) / 2.0 ** j
                for j in range(kmax + 1)]


def test_phi_levels_match_out_of_place_formulas():
    # 12 doublings take ||2^12 Y||_1 up to 4096, past overflow for the largest,
    # so inf and nan levels are compared too (array_equal ignores zero signs)
    rng = np.random.default_rng(31)
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(300):
            n = int(rng.integers(1, 13))
            Y = rng.standard_normal((n, n))
            if trial % 2:
                Y = Y + Y.T
            Y *= 10.0 ** rng.uniform(-6, 0) / np.linalg.norm(Y, 1)
            kmax = trial % (MAX_PHI_ORDER + 1)
            pairs = zip(matfuncs._phi_levels(Y, kmax), out_of_place_phi_levels(Y, kmax))
            for level, (got, ref) in zip(range(13), pairs):
                for k in range(kmax + 1):
                    assert np.array_equal(got[k], ref[k], equal_nan=True), (trial, level, k)


class CountedY(np.ndarray):
    """Counts the matmuls (by @ or np.matmul) whose left operand is this array."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is self:
            self.products += 1

        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, CountedY) else x for x in xs)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


@pytest.mark.parametrize("kmax", [1, 3, MAX_PHI_ORDER])
def test_phi_horner_pass_runs_kmax_plus_19_products(kmax):
    # 20 Taylor terms from the diagonal I/(kmax+19)!: Y @ 0 is never formed,
    # and the doublings multiply phi matrices only
    Y = (np.random.default_rng(37).standard_normal((6, 6)) / 12.0).view(CountedY)
    Y.products = 0
    levels = matfuncs._phi_levels(Y, kmax)
    next(levels)
    assert Y.products == kmax + 19
    next(levels)
    assert Y.products == kmax + 19


def test_expm_levels_are_expm_of_halvings():
    # ||X||_1 = 300 takes 6 squarings; level 6 - j of the chain is expm(X / 2^j)
    rng = np.random.default_rng(29)
    X = rng.standard_normal((7, 7))
    X *= 300.0 / np.linalg.norm(X, 1)
    levels = matfuncs._expm_levels(X / 2.0 ** 6)
    for level, j in zip(levels, range(6, -1, -1)):
        assert np.array_equal(level, expm(X / 2.0 ** j)), j


def test_phi_matrices_keys_and_orders():
    M = np.array([[-1.0, 2.0], [0.0, -3.0]])
    table = phi_matrices(M, [(0, 0.5), (2, 0.5), (1, -1.0), (2, 0.5)])
    assert set(table) == {(0, 0.5), (2, 0.5), (1, -1.0)}
    assert np.allclose(table[0, 0.5], expm(0.5 * M), rtol=1e-14)
    with pytest.raises(ParameterError):
        phi_matrices(M, [(MAX_PHI_ORDER + 1, 1.0)])


# ------------------------------------------------------- phi_combination

def test_phi_combination_zero_vectors():
    M = np.random.default_rng(1).standard_normal((4, 4))
    out = phi_combination(M, [np.zeros(4), np.zeros(4)])
    assert np.abs(out).max() == 0.0


def test_phi_combination_zero_matrix():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(phi_combination(np.zeros((3, 3)), [v]), v, atol=1e-15)


def test_phi_combination_matches_per_term_oracle():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((5, 5))
    v1, v2 = rng.standard_normal(5), rng.standard_normal(5)
    ref = phi_matrix(1, M) @ v1 + phi_matrix(2, M) @ v2
    out = phi_combination(M, [v1, v2])
    assert np.abs(out - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_phi_combination_random_suite():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        M = rng.standard_normal((n, n))
        norm1 = np.linalg.norm(M, 1)
        if norm1 > 20.0:
            M *= 20.0 / norm1
        vs = [rng.standard_normal(n) for _ in range(k)]
        ref = sum(taylor_phi_matrix(i + 1, M) @ vs[i] for i in range(k))
        out = phi_combination(M, vs)
        assert np.abs(out - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_phi_combination_dimension_error():
    with pytest.raises(DimensionError):
        phi_combination(np.eye(3), [np.ones(2)])


def test_phi_combination_needs_a_vector():
    with pytest.raises(ParameterError, match="at least one vector"):
        phi_combination(np.eye(3), [])


# -------------------------------------------------------------- sym_eigen

def test_sym_eigen_identity():
    E = sym_eigen(np.eye(3))
    assert np.allclose(E.eigenvalues, np.ones(3))


def test_sym_eigen_sorted_ascending():
    E = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(E.eigenvalues, [1.0, 2.0, 3.0])


def test_sym_eigen_dirichlet_laplacian_spectrum():
    n = 10
    M = 2.0 * np.eye(n) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    E = sym_eigen(M)
    expected = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.allclose(E.eigenvalues, np.sort(expected), atol=1e-12)


def test_sym_eigen_invariants():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((8, 8))
    M = S + S.T
    E = sym_eigen(M)
    Q = E.eigenvectors
    assert np.abs(Q.T @ Q - np.eye(8)).max() <= 1e-10
    recon = (Q * E.eigenvalues) @ Q.T
    assert np.abs(recon - M).max() <= 1e-8 * np.abs(M).max()


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(ContractError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("M, want", [
    (np.zeros((3, 3)), True),
    (np.full((3, 3), -0.0), True),
    (np.array([[2.0, -1.0], [-1.0, 2.0]]), True),
    (np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]]), True),
    (np.array([[1.0, 1.0 + 1e-11], [1.0, 1.0]]), False),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),
], ids=["zero", "negative-zero", "exact", "within-1e-12", "beyond-1e-12", "nan"])
def test_is_symmetric_decides_and_leaves_m_alone(M, want):
    before = M.copy()
    assert is_symmetric(M) == want
    assert np.array_equal(M, before, equal_nan=True)


def test_sym_eigen_decomposes_the_symmetric_part(monkeypatch):
    # eigh reads one triangle: an exactly symmetric M goes in as it is (its
    # symmetric part bit for bit), one within 1e-12 as 0.5 (M + M^T)
    S = np.random.default_rng(3).standard_normal((6, 6))
    exact = S + S.T
    near = exact.copy()
    near[0, 5] += 1e-14
    seen, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: seen.append(M) or eigh(M))
    for M in (exact, near):
        sym_eigen(M)
    assert seen[0] is exact and np.array_equal(0.5 * (exact + exact.T), exact)
    assert np.array_equal(seen[1], 0.5 * (near + near.T))


# ------------------------------------------------------ tridiagonal_eigen

@pytest.mark.parametrize("n", [2, 15, 100, 399])
def test_tridiagonal_eigen_decomposes_the_testbed_split(n):
    # A - B/2 = D S D^-1 with S = tridiag(-c, 2a, -c), c = sqrt((a - b/2)(a + b/2)), whose
    # eigenvalues 2a - 2c cos(k pi h) are the closed-form oracle; W V = I and V diag(lam) W = M
    g = build_grid(n)
    ops = build_operators(g, 0.2)
    M = ops.A - ops.B / 2
    E = tridiagonal_eigen(M)
    a, b = 0.2 / g.h ** 2, 0.5 / g.h
    c = math.sqrt((a - b / 2) * (a + b / 2))
    lam = 2 * a - 2 * c * np.cos(np.pi * g.h * np.arange(1, n + 1))
    assert np.abs(E.eigenvalues - lam).max() <= 1e-13 * lam.max()
    assert np.abs(E.inverse @ E.eigenvectors - np.eye(n)).max() <= 1e-13
    assert np.abs(frac_power(E, 1.0) - M).max() <= 1e-13 * np.abs(M).max()  # V diag(lam) W


@pytest.mark.parametrize("M", [
    np.array([[2.0, np.inf], [np.inf, 2.0]]),  # inf * inf > 0
    np.array([[np.nan, -1.0], [-2.0, 2.0]]),
    np.array([[2.0, -1e300], [-1e300, 2.0]]),  # the product overflows
    np.array([[2.0, 0.0], [-1.0, 2.0]]),  # a zero product: D divides by 0
], ids=["inf-off-diagonals", "nan-diagonal", "overflowing-product", "zero-upper"])
def test_tridiagonal_eigen_refuses_without_warnings(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tridiagonal_eigen(M) is None


def test_symmetric_inverse_is_the_transposed_basis():
    E = sym_eigen(np.diag([3.0, 1.0, 2.0]) + 0.5)
    assert np.shares_memory(E.inverse, E.eigenvectors)
    assert np.array_equal(E.inverse, E.eigenvectors.T)


# ------------------------------------------------------------- frac_power

def test_frac_power_identity():
    assert np.allclose(frac_power(sym_eigen(np.eye(4)), 0.5), np.eye(4))


def test_frac_power_gamma_one_recovers_matrix():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((5, 5))
    M = S @ S.T + np.eye(5)
    assert np.abs(frac_power(sym_eigen(M), 1.0) - M).max() <= 1e-10 * np.abs(M).max()


def test_frac_power_square_root_squares_back():
    rng = np.random.default_rng(8)
    S = rng.standard_normal((6, 6))
    M = S @ S.T + np.eye(6)
    R = frac_power(sym_eigen(M), 0.5)
    assert np.abs(R @ R - M).max() <= 1e-8 * np.abs(M).max()


@pytest.mark.parametrize("n", [25, 399])
def test_frac_power_of_exact_testbed_spectrum_inverts(n):
    # oracle: LU inverse of the stencil matrix, which frac_power never sees
    g = build_grid(n)
    inv = np.linalg.inv(build_operators(g, 0.2).A)
    got = frac_power(exact_eigen(g, 0.2), -1.0)
    assert np.abs(got - inv).max() <= 1e-12 * np.abs(inv).max()


@pytest.mark.parametrize("n", [25, 399])
@pytest.mark.parametrize("gamma", [-0.5, -0.1, 0.5])
def test_frac_power_exact_and_eigh_spectra_agree(n, gamma):
    # eigh errs by ~eps ||A|| in every eigenvalue, a relative eps * cond(A)
    # (~1.4e-11 at n = 399) in the smallest, which A^gamma scales by |gamma|
    g = build_grid(n)
    ref = frac_power(sym_eigen(build_operators(g, 0.2).A), gamma)
    got = frac_power(exact_eigen(g, 0.2), gamma)
    assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_frac_power_domain_error():
    E = SymEigen(eigenvalues=np.array([-1.0, 2.0]), eigenvectors=np.eye(2))
    with pytest.raises(DomainError):
        frac_power(E, 0.5)


def test_frac_power_negative_power_of_singular_matrix():
    with pytest.raises(DomainError):
        frac_power(sym_eigen(np.diag([0.0, 1.0, 2.0])), -1.0)


def test_phi_values_vectorized_consistent():
    z = np.array([-40.0, -0.05, 0.0, 0.05, 2.0])
    vec = phi_values(2, z)
    assert np.allclose(vec, [float(phi_values(2, zi)) for zi in z], rtol=1e-14)
