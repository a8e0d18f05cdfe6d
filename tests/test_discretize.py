"""Testbed discretization: stencils, spectra, norms, consistency orders."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprk.discretize import (OperatorPair, apply_B, build_grid, build_operators,
                              discrete_norms, dst1, exact_eigenvalues,
                              initial_data)
from exprk.errors import ContractError, DimensionError, ParameterError
from exprk.matfuncs import sym_eigen
from exprk.probes import smoothing_probe
from oracles import exact_eigen


def test_build_grid_small():
    g = build_grid(3)
    assert g.h == pytest.approx(0.25)
    assert np.allclose(g.xs, [0.25, 0.5, 0.75])


def test_build_grid_paper_size():
    assert build_grid(399).h == pytest.approx(1.0 / 400.0)


def test_build_grid_rejects_degenerate():
    with pytest.raises(ParameterError):
        build_grid(1)


def test_stencil_values():
    ops = build_operators(build_grid(3), 0.2)
    assert ops.A[1, 1] == pytest.approx(2 * 0.2 / 0.0625)   # 6.4
    assert ops.A[1, 0] == pytest.approx(-0.2 / 0.0625)      # -3.2
    assert ops.B[1, 2] == pytest.approx(1.0 / (2 * 0.25))   # +2
    assert ops.B[1, 0] == pytest.approx(-2.0)


def test_operator_structure():
    ops = build_operators(build_grid(20), 0.2)
    assert np.abs(ops.A - ops.A.T).max() <= 1e-12 * np.abs(ops.A).max()
    assert np.abs(ops.B + ops.B.T).max() <= 1e-12 * np.abs(ops.B).max()
    assert np.linalg.eigvalsh(ops.A).min() > 0
    # interior rows of A*h^2/nu sum to zero (stencil -1, 2, -1)
    g = build_grid(20)
    scaled = ops.A * g.h ** 2 / 0.2
    assert np.abs(scaled[1:-1].sum(axis=1)).max() <= 1e-12


@pytest.mark.parametrize("A, symmetric", [
    (np.array([[2.0, -1.0], [-1.0, 2.0]]), True),
    (np.array([[2.0, -1.0], [0.0, 2.0]]), False),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), False),
], ids=["symmetric", "asymmetric", "nan", "inf"])
def test_operator_pair_eigen_only_for_a_finite_symmetric_A(A, symmetric):
    E = OperatorPair(A=A, B=np.zeros((2, 2)), nu=0.0).eigen
    assert (E is not None) == symmetric
    if symmetric:
        assert np.array_equal(E.eigenvalues, sym_eigen(A).eigenvalues)


def test_operator_eigenvalues_closed_form():
    g = build_grid(3)
    ops = build_operators(g, 0.2)
    expected = (0.2 / g.h ** 2) * (2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / 4.0))
    assert np.allclose(np.linalg.eigvalsh(ops.A), np.sort(expected), rtol=1e-12)


def dense_stencils(g, nu):
    """Oracle: the testbed's A and B composed densely from eye and diag."""
    off = np.ones(g.n_inner - 1)
    A = (nu / g.h ** 2) * (2.0 * np.eye(g.n_inner) - np.diag(off, 1) - np.diag(off, -1))
    B = (1.0 / (2.0 * g.h)) * (np.diag(off, 1) - np.diag(off, -1))
    return A, B


@pytest.mark.parametrize("nu", [1e-3, 0.2, 7.5])
@pytest.mark.parametrize("n", [2, 3, 10, 100, 399])
def test_build_operators_bytes_match_dense_formula(n, nu):
    g = build_grid(n)
    A, B = dense_stencils(g, nu)
    ops = build_operators(g, nu)
    assert ops.A.tobytes() == A.tobytes() and ops.B.tobytes() == B.tobytes()
    assert ops.A.shape == ops.B.shape == (n, n)


@pytest.mark.parametrize("nu", [1e-3, 0.2, 7.5])
@pytest.mark.parametrize("n", [2, 3, 10, 100, 399])
def test_exact_eigenvalues_bytes_match_formula(n, nu):
    g = build_grid(n)
    k = np.arange(1, n + 1)
    lam = (4.0 * nu / g.h ** 2) * np.sin(0.5 * np.pi * g.h * k) ** 2
    assert exact_eigenvalues(g, nu).tobytes() == lam.tobytes()
    assert exact_eigen(g, nu).eigenvalues.tobytes() == lam.tobytes()


def test_operator_pair_carries_grid_only_from_build_operators():
    g = build_grid(5)
    ops = build_operators(g, 0.2)
    assert ops.grid is g
    assert OperatorPair(A=ops.A, B=ops.B, nu=ops.nu).grid is None
    with pytest.raises(TypeError):
        OperatorPair(A=ops.A, B=ops.B, nu=ops.nu, grid=g)
    # a derived pair's A and B need not be the grid's stencils, so it has no grid
    assert dataclasses.replace(ops, nu=0.3).grid is None
    flipped = dataclasses.replace(ops, A=-ops.A)
    assert flipped.grid is None
    with pytest.raises(ContractError):
        smoothing_probe(flipped, 0.5, [0.1, 1.0])


def test_pairs_and_grids_compare_and_hash_by_identity():
    # a value test would compare arrays, and a grid pair forms fresh ones on each read
    g = build_grid(5)
    ops = build_operators(g, 0.2)
    given = OperatorPair(A=ops.A, B=ops.B, nu=0.2)
    assert ops == ops and given == given and g == g
    assert ops != build_operators(g, 0.2) and given != OperatorPair(A=ops.A, B=ops.B, nu=0.2)
    assert g != build_grid(5)
    assert len({ops, ops, given, g, g}) == 3


def test_grid_pair_repr_forms_no_operator():
    ops = build_operators(build_grid(16383), 0.2)  # a dense A alone would take 2.1 GB
    tracemalloc.start()
    try:
        text = repr(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert text.startswith("OperatorPair(nu=0.2, grid=Grid1D(n_inner=16383, ")
    given = OperatorPair(A=np.eye(2), B=np.eye(2), nu=0.2)
    assert repr(given) == "OperatorPair(nu=0.2, grid=None)"


def test_grid_pair_forms_A_B_and_L_fresh_on_each_read_and_keeps_none():
    g = build_grid(7)
    ops, (A, B) = build_operators(g, 0.2), dense_stencils(g, 0.2)
    for name, want in (("A", A), ("B", B), ("L", B - A)):
        first, again = getattr(ops, name), getattr(ops, name)
        assert first is not again and not np.shares_memory(first, again), name
        assert first.tobytes() == again.tobytes() == want.tobytes(), name
    assert not {"A", "B", "L"} & set(vars(ops))
    with pytest.raises(AttributeError, match="no attribute 'C'"):
        ops.C
    # a pair built by hand keeps the arrays it was given
    assert OperatorPair(A=A, B=B, nu=0.2).A is A


def test_writing_into_a_read_A_changes_neither_the_next_read_nor_eigen():
    # eigen is eigh's, bit for bit, with its columns in class order: 0, 2, ..., then 1, 3, ...
    # Q keeps eigh's C layout, which sets the BLAS paths, and so the bits, of B^ and R
    g = build_grid(9)
    ops, want = build_operators(g, 0.2), sym_eigen(dense_stencils(g, 0.2)[0])
    ops.A[:] = np.nan
    order = np.r_[0:9:2, 1:9:2]
    assert ops.A.tobytes() == dense_stencils(g, 0.2)[0].tobytes()
    assert np.array_equal(ops.eigen.eigenvalues, want.eigenvalues[order])
    assert np.array_equal(ops.eigen.eigenvectors, want.eigenvectors[:, order])
    assert ops.eigen.eigenvectors.flags.c_contiguous


@pytest.mark.parametrize("n", [2, 3, 25, 399])
def test_L_is_B_minus_A_bit_for_bit(n):
    ops = build_operators(build_grid(n), 0.2)
    assert ops.L.tobytes() == (ops.B - ops.A).tobytes()
    given = OperatorPair(A=ops.A - ops.B / 2, B=ops.B / 2, nu=0.2)
    assert given.L.tobytes() == (given.B - given.A).tobytes()


def test_eigen_reads_only_A_and_B_eigen_no_dense_B(monkeypatch):
    reads, read = [], OperatorPair.__getattr__

    def spy(self, name):
        reads.append(name)
        return read(self, name)
    monkeypatch.setattr(OperatorPair, "__getattr__", spy)
    ops = build_operators(build_grid(6), 0.2)
    ops.eigen
    assert reads == ["A"]
    ops.B_eigen  # B Q_o from apply_B
    assert reads == ["A"]


@pytest.mark.parametrize("n", [2, 3, 4, 25, 399])
def test_grid_eigen_lists_even_modes_then_odd(n):
    # J flips the grid: A's eigenvector q_k is even (J q = q) or odd (J q = -q) about x = 1/2;
    # the even ones come first, each class in ascending order
    ops = build_operators(build_grid(n), 0.2)
    lam, Q, m = ops.eigen.eigenvalues, ops.eigen.eigenvectors, (n + 1) // 2
    parity = np.sign(np.einsum("jk,jk->k", Q, Q[::-1]))
    assert np.array_equal(parity, np.r_[np.ones(m), -np.ones(n - m)])
    assert np.all(np.diff(lam[:m]) > 0) and np.all(np.diff(lam[m:]) > 0)


@pytest.mark.parametrize("n", [2, 3, 4, 25, 399])
def test_grid_B_eigen_is_the_class_ordered_dense_product(n):
    # in class order Q^T B Q = [[0, X], [-X^T, 0]]: the same-class blocks are exactly 0, and
    # the dense product's are rounding noise
    ops = build_operators(build_grid(n), 0.2)
    Q, B_hat, m = ops.eigen.eigenvectors, ops.B_eigen, (n + 1) // 2
    dense = Q.T @ dense_stencils(ops.grid, 0.2)[1] @ Q
    assert not B_hat[:m, :m].any() and not B_hat[m:, m:].any()
    assert np.array_equal(B_hat[m:, :m], -B_hat[:m, m:].T)
    assert np.abs(B_hat - dense).max() <= 1e-12 * np.abs(B_hat).max()


def test_replace_on_an_unread_pair_flips_A_and_drops_grid():
    g = build_grid(6)
    ops, dense = build_operators(g, 0.2), build_operators(g, 0.2)
    flipped = dataclasses.replace(ops, A=-ops.A)
    assert flipped.grid is None
    assert np.array_equal(flipped.A, -dense.A) and np.array_equal(flipped.B, dense.B)


@pytest.mark.parametrize("nu", [0.0, -0.2, np.nan, np.inf])
def test_build_operators_rejects_nonpositive_nu(nu):
    with pytest.raises(ParameterError):
        build_operators(build_grid(3), nu)


# The closed-form DST-I eigenpairs are checked against the stencil matrix A
# and against eigh, neither of which exact_eigen uses.

@pytest.mark.parametrize("n", [25, 399])
def test_exact_eigen_is_orthonormal(n):
    Q = exact_eigen(build_grid(n), 0.2).eigenvectors
    assert np.linalg.norm(Q.T @ Q - np.eye(n), 2) <= 1e-14


@pytest.mark.parametrize("n", [25, 399])
def test_exact_eigen_diagonalizes_stencil_matrix(n):
    g = build_grid(n)
    E, A = exact_eigen(g, 0.2), build_operators(g, 0.2).A
    lam, Q = E.eigenvalues, E.eigenvectors
    assert np.all(np.diff(lam) > 0)
    assert np.linalg.norm(A @ Q - Q * lam, 2) <= 1e-14 * lam.max()


@pytest.mark.parametrize("n", [25, 399])
def test_exact_eigen_matches_sym_eigen(n):
    g = build_grid(n)
    lam = exact_eigen(g, 0.2).eigenvalues
    got = sym_eigen(build_operators(g, 0.2).A).eigenvalues
    assert np.abs(got - lam).max() <= 1e-13 * lam.max()


@pytest.mark.parametrize("n", [2, 3, 25, 399, 400])
def test_dst1_matches_exact_eigen_basis(n):
    # oracle: the gathered closed-form Q, on a vector and on a block, even and odd n + 1
    Q = exact_eigen(build_grid(n), 0.2).eigenvectors
    X = np.random.default_rng(n).standard_normal((n, 5))
    for x in (X[:, 0], X):
        got = dst1(x)
        assert got.shape == x.shape
        assert np.abs(got - Q @ x).max() <= 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [2, 3, 25, 399, 400])
def test_dst1_is_its_own_inverse(n):
    # Q is symmetric and orthogonal, so Q Q x = x
    x = np.random.default_rng(n).standard_normal(n)
    assert np.abs(dst1(dst1(x)) - x).max() <= 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("nu", [0.0, -0.2, np.nan, np.inf])
def test_exact_eigen_rejects_nonpositive_nu(nu):
    with pytest.raises(ParameterError):
        exact_eigenvalues(build_grid(3), nu)


@pytest.mark.parametrize("n", [2, 25, 399])
def test_apply_B_matches_dense_products(n):
    g = build_grid(n)
    B = build_operators(g, 0.2).B
    X = np.random.default_rng(n).standard_normal((n, 7))
    scale = np.abs(B).max() * np.abs(X).max()
    assert np.abs(apply_B(g, X) - B @ X).max() <= 1e-15 * scale
    Y = X.T  # Y @ B = -(B Y^T)^T since B is skew
    assert np.abs(-apply_B(g, Y.T).T - Y @ B).max() <= 1e-15 * scale
    assert np.abs(apply_B(g, X[:, 0]) - B @ X[:, 0]).max() <= 1e-15 * scale


def test_initial_data_values():
    g = build_grid(3)
    u0 = initial_data(g)
    assert u0[1] == pytest.approx(1.0)    # vertex at x = 0.5
    assert u0[0] == pytest.approx(0.75)   # 4 * 0.25 * 0.75


def test_initial_data_symmetric():
    u0 = initial_data(build_grid(21))
    assert np.allclose(u0, u0[::-1])


def test_discrete_norms_examples():
    g = build_grid(3)
    z = discrete_norms(g, np.zeros(3))
    assert (z.l1, z.l2, z.linf) == (0.0, 0.0, 0.0)
    ones = discrete_norms(g, np.ones(3))
    assert ones.l1 == pytest.approx(0.75)
    assert ones.l2 == pytest.approx(np.sqrt(0.75))
    assert ones.linf == pytest.approx(1.0)
    e1 = discrete_norms(g, np.array([1.0, 0.0, 0.0]))
    assert (e1.l1, e1.l2, e1.linf) == (0.25, 0.5, 1.0)
    assert e1.l2 ** 2 == pytest.approx(e1.l1 * e1.linf)


def test_discrete_norms_l2_past_square_overflow():
    """l2 stays finite where v ** 2 overflows, and keeps the plain sum's bits below."""
    g = build_grid(31)
    w = np.random.default_rng(0).uniform(-3.0, 3.0, 31)
    plain = float(np.sqrt(g.h * (w ** 2).sum()))
    big = discrete_norms(g, w * 2.0 ** 600)  # squares reach 2^1200
    assert big.l2 == pytest.approx(plain * 2.0 ** 600, rel=1e-14)
    assert discrete_norms(g, w * 2.0 ** 500).l2 == plain * 2.0 ** 500
    assert discrete_norms(g, np.full(31, np.inf)).l2 == np.inf


def test_discrete_norms_l1_past_sum_overflow():
    """l1 stays finite where sum |v| overflows, and keeps the plain sum's bits below."""
    g = build_grid(31)
    big = discrete_norms(g, np.full(31, 1e307))  # sum |v| is 3.1e308, past the largest float
    assert big.l1 == pytest.approx(g.h * 31 * 1e307, rel=1e-14) and np.isfinite(big.l2)
    w = np.random.default_rng(1).uniform(-3.0, 3.0, 31) * 2.0 ** 1000
    assert discrete_norms(g, w).l1 == float(g.h * np.abs(w).sum())
    assert discrete_norms(g, np.full(31, np.inf)).l1 == np.inf


def test_discrete_norms_dimension_error():
    with pytest.raises(DimensionError):
        discrete_norms(build_grid(3), np.zeros(4))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30))
def test_norm_interpolation_inequality(values):
    g = build_grid(len(values))
    t = discrete_norms(g, np.array(values))
    assert t.l2 ** 2 <= t.l1 * t.linf * (1.0 + 1e-12) + 1e-300


def _fitted_order(hs, errs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


def test_diffusion_stencil_second_order():
    nu = 0.2
    hs, errs = [], []
    for n in (24, 49, 99, 199):
        g = build_grid(n)
        ops = build_operators(g, nu)
        v = np.sin(np.pi * g.xs)
        resid = np.abs(ops.A @ v - nu * np.pi ** 2 * v).max()
        hs.append(g.h)
        errs.append(resid)
    assert _fitted_order(hs, errs) >= 1.9


def test_advection_stencil_second_order_interior():
    hs, errs = [], []
    for n in (24, 49, 99, 199):
        g = build_grid(n)
        ops = build_operators(g, 0.2)
        v = np.sin(np.pi * g.xs)
        exact = np.pi * np.cos(np.pi * g.xs)
        interior = slice(n // 6, n - n // 6)  # middle two-thirds
        resid = np.abs((ops.B @ v - exact)[interior]).max()
        hs.append(g.h)
        errs.append(resid)
    assert _fitted_order(hs, errs) >= 1.9


def test_diffusion_min_eigenvalue_bound():
    for n in (49, 99, 199):
        g = build_grid(n)
        ops = build_operators(g, 0.2)
        lam_min = np.linalg.eigvalsh(ops.A).min()
        assert lam_min >= 0.2 * np.pi ** 2 * (1.0 - 2.0 * g.h ** 2)
        assert lam_min > 0
