"""Scheme construction and time stepping, checked against scalar exact solutions."""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from exprk import discretize, matfuncs, probes, stepping
from exprk.discretize import (OperatorPair, build_grid, build_operators, discrete_norms,
                              initial_data)
from exprk.errors import ContractError, DimensionError, InstabilityError, ParameterError
from exprk.matfuncs import expm, phi_combination, phi_values, sym_eigen
from exprk.stepping import (Stepper, default_reference_step, solve,
                            solve_reference_rk4, spectral_radius_estimate)
from exprk.tableau_io import parse_tableau
from exprk.tableaus import (BUILTIN_SCHEMES, PhiCombo, PhiTerm, Tableau, exponential_euler,
                            resolve_scheme, second_order, third_order)
from oracles import exact_eigen


def scalar_ops(a, b):
    return OperatorPair(A=np.array([[float(a)]]), B=np.array([[float(b)]]), nu=0.0)


def fitted_order(taus, errs):
    return float(np.polyfit(np.log(taus), np.log(errs), 1)[0])


# ---------------------------------------------------------------- schemes

def test_euler_tableau_structure():
    tab = exponential_euler()
    assert tab.s == 1 and tab.c == (0.0,)
    assert tab.b[0].at_zero() == pytest.approx(1.0)  # phi_1(0) = 1


def test_second_order_classical_weights():
    for c in (0.25, 0.5, 1.0):
        tab = second_order(c)
        assert tab.b[0].at_zero() == pytest.approx(1.0 - 1.0 / (2.0 * c))
        assert tab.b[1].at_zero() == pytest.approx(1.0 / (2.0 * c))


def test_second_order_rejects_bad_node():
    with pytest.raises(ParameterError):
        second_order(0.0)
    with pytest.raises(ParameterError):
        second_order(1.5)


def test_third_order_nodes_and_scales():
    tab = third_order()
    assert tab.c == (0.0, 0.5, 1.0)
    scales = {t.scale for combo in list(tab.a.values()) + list(tab.b) for t in combo.terms}
    assert scales == {0.5, 1.0}


def test_resolve_scheme_names():
    assert resolve_scheme("euler", 0.5).s == 1
    assert resolve_scheme("rk2", 0.3).c[1] == 0.3
    assert resolve_scheme("rk3paper", 0.5).s == 3
    assert [resolve_scheme(name, 0.5).name for name in BUILTIN_SCHEMES] == ["euler", "rk2(c=0.5)",
                                                                      "rk3paper"]
    with pytest.raises(ParameterError, match="built-ins are euler, rk2, rk3paper$"):
        resolve_scheme("etd3rk", 0.5)


PHI1 = PhiCombo((PhiTerm(1.0, 1, 1.0),))


@pytest.mark.parametrize("c, b, fragment", [
    ((0.5,), (PHI1,), "first node must be 0"),
    ((0.0, 0.5), (PHI1,), "one combo per stage"),
    ((0.0,), (PhiCombo((PhiTerm(1.0, 1, np.inf),)),), "non-finite coefficient weight"),
    ((0.0,), (PhiCombo((PhiTerm(1.0, 9, 1.0),)),), "phi order 9"),
    ((0.0,), (PhiCombo((PhiTerm(1.0, 1.5, 1.0),)),), "phi order 1.5"),
    ((0.0, np.nan), (PHI1, PHI1), "node nan outside [0, 1]"),
    ((0.0, -3.0), (PHI1, PHI1), "node -3.0 outside [0, 1]"),
    ((0.0, 1.5), (PHI1, PHI1), "node 1.5 outside [0, 1]"),
], ids=["first-node", "b-count", "weight", "order-9", "order-1.5", "node-nan", "node-negative",
        "node-above-one"])
def test_tableau_rejects_broken_structure(c, b, fragment):
    with pytest.raises(ContractError, match=re.escape(fragment)):
        Tableau(name="bad", c=c, a={}, b=b)


# ------------------------------------------------------------------- step

def test_euler_one_step_scalar_formula():
    a, b, tau = 2.0, 1.0, 0.1
    u1 = Stepper(exponential_euler(), scalar_ops(a, b), tau).step(np.array([1.0]))
    expected = np.exp(-tau * a) + tau * float(phi_values(1, -tau * a)) * b
    assert u1[0] == pytest.approx(expected, rel=1e-14)


def test_step_pure_semigroup_when_b_zero():
    g = build_grid(12)
    ops = build_operators(g, 0.2)
    ops0 = OperatorPair(A=ops.A, B=np.zeros_like(ops.B), nu=ops.nu)
    u = initial_data(g)
    tau = 0.05
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        out = Stepper(tab, ops0, tau).step(u)
        ref = expm(-tau * ops.A) @ u
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_step_identity_when_operators_zero():
    ops = OperatorPair(A=np.zeros((3, 3)), B=np.zeros((3, 3)), nu=0.0)
    u = np.array([1.0, -2.0, 3.0])
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        assert np.allclose(Stepper(tab, ops, 0.7).step(u), u, atol=1e-14)


def test_one_step_local_orders_scalar():
    # euler: O(tau^2) local; third-order tableau: O(tau^4) local
    a, b = 1.0, 0.3
    ops = scalar_ops(a, b)
    for tab, local in ((exponential_euler(), 2.0), (third_order(), 4.0)):
        taus = [0.05 / 2 ** k for k in range(5)]
        errs = [abs(Stepper(tab, ops, t).step(np.array([1.0]))[0] - np.exp(t * (b - a)))
                for t in taus]
        assert fitted_order(taus, errs) == pytest.approx(local, abs=0.15)


def stage_recurrence_step(tab, ops, tau, u):
    """One step as the vector stage recurrence, coefficients from PhiCombo.eval_matrix."""
    Z = -tau * np.asarray(ops.A, dtype=float)
    B = np.asarray(ops.B, dtype=float)
    Bu = [B @ u]
    for i in range(2, tab.s + 1):
        Ui = expm(tab.c[i - 1] * Z) @ u
        for j in range(1, i):
            if (i, j) in tab.a:
                Ui = Ui + tau * (tab.a[(i, j)].eval_matrix(Z) @ Bu[j - 1])
        Bu.append(B @ Ui)
    out = expm(Z) @ u
    for bi, Bui in zip(tab.b, Bu):
        out = out + tau * (bi.eval_matrix(Z) @ Bui)
    return out


@pytest.mark.parametrize("split", [False, True], ids=["testbed", "nonsym-split"])
def test_propagator_matches_stage_recurrence(split):
    g = build_grid(15)
    ops = build_operators(g, 0.2)
    if split:  # A' = A - B/2 steps in its eigenbasis D Q; the oracle runs expm and eval_matrix
        ops = OperatorPair(A=ops.A - ops.B / 2, B=ops.B / 2, nu=ops.nu)
    u = initial_data(g)
    tau = 0.02
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        got = Stepper(tab, ops, tau).step(u)
        want = stage_recurrence_step(tab, ops, tau, u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("split", [False, True], ids=["testbed", "nonsym-split"])
def test_propagator_with_omitted_b_entry(split):
    # a tableau file may leave b[i] out; its combo has no terms and adds nothing
    g = build_grid(15)
    ops = build_operators(g, 0.2)
    if split:
        ops = OperatorPair(A=ops.A - ops.B / 2, B=ops.B / 2, nu=ops.nu)
    padded = parse_tableau("c = 0,0.5\na[2][1] = scale:0.5 phi:1 w:0.5\n"
                           "b[1] = scale:1 phi:1 w:1\n")
    u = initial_data(g)
    got = Stepper(padded, ops, 0.02).step(u)
    want = Stepper(exponential_euler(), ops, 0.02).step(u)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("tab, want", [
    (exponential_euler(), {(0, 1.0), (1, 1.0)}),
    (second_order(1.0 / 3.0), {(0, 1.0), (0, 1.0 / 3.0), (1, 1.0 / 3.0), (1, 1.0), (2, 1.0)}),
    (third_order(), {(0, 1.0), (0, 0.5), (1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0), (3, 1.0)}),
    (parse_tableau("c = 0,0.5\na[2][1] = scale:0.5 phi:1 w:0.5\nb[1] = scale:1 phi:1 w:1\n"),
     {(0, 1.0), (0, 0.5), (1, 0.5), (1, 1.0)}),  # the omitted b[2] reads nothing
    (parse_tableau("c = 0,0\nb[2] = scale:1 phi:1 w:1\n"),
     {(0, 1.0), (0, 0.0), (1, 1.0)}),  # phi_0 at an interior 0 is I, from the table too
], ids=["euler", "rk2(1/3)", "rk3paper", "file-omitted-b", "file-interior-zero"])
def test_nonsymmetric_stepper_reads_tableau_phi_keys(tab, want, monkeypatch):
    ops = chain_pair(15)
    calls = []

    def counted(M, keys):
        calls.append(set(keys))
        return matfuncs.phi_matrices(M, keys)
    monkeypatch.setattr(stepping, "phi_matrices", counted)
    Stepper(tab, ops, 0.02)
    assert calls == [tab.phi_keys] and tab.phi_keys == want


@pytest.mark.parametrize("tau", [2.0 ** -3, 2.0 ** -6])
def test_nonsymmetric_stepper_runs_one_chain_per_kernel(tau, monkeypatch):
    # rk3paper reads phi_k(Z) and phi_k(Z/2), one power-of-two family: one
    # Pade solve serves both phi_0 and one Horner pass both phi_1..phi_3
    ops = chain_pair(100)
    calls = spy_level_loops(monkeypatch)
    Stepper(third_order(), ops, tau)
    assert sorted(calls) == ["pade", "phi"]


# ------------------------------------------------------ the split pair's two paths

def split_pair(n=30, nu=0.2):
    """The testbed split A' = A - B/2, B' = B/2: A' is not symmetric, but tridiagonal with
    positive off-diagonal products, so D^-1 A' D is symmetric for a diagonal D."""
    base = build_operators(build_grid(n), nu)
    return OperatorPair(A=base.A - base.B / 2, B=base.B / 2, nu=base.nu)


def chain_pair(n=30):
    """split_pair(n) with its two corner entries set, so A' is not tridiagonal: no diagonal
    similarity makes it symmetric, and its builds take the phi_matrices path."""
    ops = split_pair(n)
    A = ops.A.copy()
    A[0, -1], A[-1, 0] = A[1, 0], A[0, 1]
    return OperatorPair(A=A, B=ops.B, nu=ops.nu)


def spy_level_loops(monkeypatch):
    """A list that gets the kind, "pade" or "phi", of each run of a chain's level loop."""
    runs = []
    for name, kind in (("_expm_levels", "pade"), ("_phi_levels", "phi")):
        def counted(*args, kind=kind, real=getattr(matfuncs, name)):
            runs.append(kind)
            return real(*args)
        monkeypatch.setattr(matfuncs, name, counted)
    return runs


def test_no_chain_cache_outlives_a_pair(monkeypatch):
    # two fresh pairs each run their own Horner pass and Pade solve
    runs = spy_level_loops(monkeypatch)
    for _ in range(2):
        Stepper(third_order(), chain_pair(), 0.02)
    assert runs.count("phi") == 2 and runs.count("pade") == 2


@pytest.mark.parametrize("n", [30, 399])
def test_split_pair_steps_in_its_eigenbasis(n, monkeypatch):
    # W V = I, and a build runs no phi chain
    ops = split_pair(n)
    E = ops.eigen
    assert E is not None and np.abs(E.inverse @ E.eigenvectors - np.eye(n)).max() <= 1e-13
    runs = spy_level_loops(monkeypatch)
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        Stepper(tab, ops, 2.0 ** -4)
    assert runs == []


def chain_propagator(ops, tab, tau, monkeypatch):
    """R(tau) of the phi_matrices path, on a copy of ops whose eigen finds no similarity."""
    with monkeypatch.context() as m:
        m.setattr(discretize, "tridiagonal_eigen", lambda A: None)
        return Stepper(tab, OperatorPair(A=ops.A, B=ops.B, nu=ops.nu), tau).R


@pytest.mark.parametrize("n", [100, 399])
def test_split_pair_propagator_matches_the_chain_path(n, monkeypatch):
    ops = split_pair(n)
    for tab, tau in ((second_order(0.5), 2.0 ** -3), (third_order(), 2.0 ** -6)):
        stepper = Stepper(tab, ops, tau)
        want = chain_propagator(ops, tab, tau, monkeypatch)
        got = stepper.V @ stepper.R @ stepper.W
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), tab.name


def refused_pair(case):
    """A pair whose A' tridiagonal_eigen refuses, one per refusal rule."""
    if case == "not-tridiagonal":
        return chain_pair()
    if case == "cond-above-bound":  # cond(D) = 3.6e3 > 1e3 at nu = 0.03, n = 100
        return split_pair(100, 0.03)
    ops, base = split_pair(), build_operators(build_grid(30), 0.2)
    A = ops.A
    if case == "product-negative":  # A - theta B, theta = 4a/b > a/b: bands 3a and -5a
        A = base.A - (2.0 * base.A[0, 0] / base.B[0, 1]) * base.B
    elif case == "product-zero":
        A[5, 4] = 0.0
    else:  # inf on both off-diagonals: inf * inf > 0 must not pass
        A[5, 4] = A[4, 5] = -np.inf
    return OperatorPair(A=A, B=ops.B, nu=0.2)


@pytest.mark.parametrize("case", ["not-tridiagonal", "product-negative", "product-zero",
                                  "cond-above-bound", "non-finite"])
def test_refused_similarity_falls_back_to_the_chain_path(case, monkeypatch):
    ops, calls = refused_pair(case), []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ops.eigen is None
    monkeypatch.setattr(stepping, "phi_matrices",
                        lambda M, keys: calls.append(keys) or matfuncs.phi_matrices(M, keys))
    if case == "non-finite":  # the chain path refuses it in turn
        with pytest.raises(ContractError, match="non-finite"):
            Stepper(third_order(), ops, 2.0 ** -4)
    else:
        assert np.isfinite(Stepper(third_order(), ops, 2.0 ** -4).R).all()
    assert calls == [third_order().phi_keys]


# ------------------------------------------------------ bit-identity pins

def reference_propagator(tab, ops, tau):
    """R(tau) by the plain stage recurrence, with its own arithmetic: phi_0 as
    a dense matrix (a dense diagonal in A's eigenbasis), I from np.eye, a
    build_operators pair's B^ U stacked from B^'s two cross blocks (class order), and
    every sum out of place, left to right. Stepper adds the same terms in the same
    order, in place and on the diagonal, so it must match bit for bit."""
    n, m = len(ops.A), (len(ops.A) + 1) // 2
    I = np.eye(n)
    B = ops.B if ops.eigen is None else ops.B_eigen
    times_B = lambda U: B @ U
    if ops.grid is not None:  # B^ = [[0, X], [-X^T, 0]]
        times_B = lambda U: np.vstack([B[:m, m:] @ U[m:], B[m:, :m] @ U[:m]])
    if ops.eigen is not None:
        lam = ops.eigen.eigenvalues
        phi = {(k, s): phi_values(k, -s * tau * lam)[:, None] for k, s in tab.phi_keys}
        apply, exp_at = np.multiply, lambda c: phi[0, c] * I
    else:
        phi, apply = matfuncs.phi_matrices(-tau * ops.A, tab.phi_keys), np.matmul
        exp_at = lambda c: phi[0, c]
    zero = np.zeros_like(phi[0, 1.0])
    BU = [B]
    for i, ci in enumerate(tab.c[1:], start=2):
        Ui = exp_at(ci) if ci != 0.0 else I
        for j in range(1, i):
            if (i, j) in tab.a:
                Ui = Ui + apply(tau * tab.a[i, j].combine(phi, zero), BU[j - 1])
        BU.append(times_B(Ui))
    R = exp_at(1.0)
    for bi, BUi in zip(tab.b, BU):
        R = R + apply(tau * bi.combine(phi, zero), BUi)
    return R


# stage 2: c = 1/2 and no a terms; stage 3: an interior c = 0 with a term;
# stage 4: c = 0 and no a terms; b[3] left out
GAPPY = parse_tableau("c = 0,0.5,0,0,1\n"
                      "a[3][1] = scale:0.5 phi:1 w:0.5\n"
                      "a[5][2] = scale:1 phi:1 w:0.5 + scale:0.5 phi:2 w:1\n"
                      "a[5][3] = scale:1 phi:2 w:1\n"
                      "a[5][4] = scale:0.5 phi:1 w:-0.25\n"
                      "b[1] = scale:1 phi:1 w:1 + scale:1 phi:2 w:-1\n"
                      "b[2] = scale:1 phi:2 w:1\n"
                      "b[4] = scale:1 phi:3 w:0.5\n"
                      "b[5] = scale:0.5 phi:3 w:0.5\n")
PINNED = [resolve_scheme("euler", 0.5), resolve_scheme("rk2", 0.5), resolve_scheme("rk3paper", 0.5),
          second_order(1.0 / 3.0), GAPPY]


@functools.lru_cache(maxsize=None)
def pinned_ops(path):
    """The n = 399 paper testbed, its matrices given by hand (the dense B_eigen path), the
    split A' = A - B/2 at n = 100 (its eigenbasis D Q, B^ = W B V), or that split with its
    corners set (the phi_matrices path)."""
    if path == "testbed":
        return build_operators(build_grid(399), 0.2)
    if path == "given":
        base = build_operators(build_grid(399), 0.2)
        return OperatorPair(A=base.A, B=base.B, nu=base.nu)
    return split_pair(100) if path == "similar-split" else chain_pair(100)


@pytest.mark.parametrize("tab", PINNED, ids=["euler", "rk2(c=0.5)", "rk3paper", "rk2(c=0.333333)",
                                           "gappy"])
@pytest.mark.parametrize("path, taus", [("testbed", range(3, 11)), ("given", range(3, 11)),
                                        ("similar-split", range(3, 7)),
                                        ("nonsym-split", range(3, 7))],
                         ids=["testbed", "given", "similar-split", "nonsym-split"])
def test_propagator_is_bit_identical_to_plain_recurrence(path, taus, tab):
    ops = pinned_ops(path)
    assert (ops.eigen is None) == (path == "nonsym-split")
    for k in taus:
        tau = 2.0 ** -k
        assert np.array_equal(Stepper(tab, ops, tau).R, reference_propagator(tab, ops, tau)), tau


def test_study_keeps_no_dense_A_or_B():
    # the reference, an rk3paper build and solve form the stencils they read and keep none;
    # on a pair given the same stencils, the reference gives the same bits and leaves B be
    g = build_grid(399)
    ops, u0 = build_operators(g, 0.2), initial_data(g)
    ref = solve_reference_rk4(ops, u0, 2.0 ** -8, 2.0 ** -16)
    Stepper(third_order(), ops, 2.0 ** -9)
    solve(third_order(), ops, u0, 2.0 ** -8, 2.0 ** -8)
    assert "A" not in vars(ops) and "B" not in vars(ops)
    kept = OperatorPair(A=ops.A, B=ops.B, nu=0.2)
    B = kept.B.copy()
    assert solve_reference_rk4(kept, u0, 2.0 ** -8, 2.0 ** -16).tobytes() == ref.tobytes()
    assert kept.B.tobytes() == B.tobytes()


def test_spectral_build_holds_three_arrays():
    # rk3paper in A's eigenbasis: the spare buffer and B^ U_2, B^ U_3, R formed in them
    n = 399
    ops = build_operators(build_grid(n), 0.2)
    ops.B_eigen
    tracemalloc.start()
    try:
        Stepper(third_order(), ops, 2.0 ** -5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 3 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("tau", [2.0 ** -4, 2.0 ** -10])
@pytest.mark.parametrize("scheme", ["euler", "rk2", "rk3paper"])
def test_class_path_solve_matches_full_B_eigen_path(scheme, tau):
    # one pair steps in class order by B^'s blocks, the same matrices given by hand in eigh's
    # ascending order with the dense B^. Over T = 1 they part by up to 1.1e-13 (rk2 at 2^-10, 1024 steps), while each lies
    # 3.6e-11 from an extended-precision build on the exact sine basis: eigh's lam_1 sets that
    g = build_grid(399)
    grid_pair, u0 = build_operators(g, 0.2), initial_data(g)
    given = OperatorPair(A=grid_pair.A, B=grid_pair.B, nu=0.2)
    tab = resolve_scheme(scheme, 0.5)
    got, want = (solve(tab, ops, u0, 1.0, tau).final for ops in (grid_pair, given))
    assert np.abs(got - want).max() <= 2e-13 * np.abs(want).max()


@pytest.mark.parametrize("scheme, products", [("euler", 0), ("rk3paper", 4)])
def test_class_path_build_multiplies_half_size_blocks_only(scheme, products, monkeypatch):
    # every B^ U is X S_o and -X^T S_e, inner dimension <= ceil(n/2); euler multiplies nothing
    n = 399
    ops = build_operators(build_grid(n), 0.2)
    ops.B_eigen
    inner, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda a, b, **kw: inner.append(a.shape[-1]) or matmul(a, b, **kw))
    Stepper(resolve_scheme(scheme, 0.5), ops, 2.0 ** -5)
    assert len(inner) == products and max(inner, default=0) <= (n + 1) // 2


def test_cached_stepper_matches_per_call_recomputation():
    g = build_grid(15)
    ops = build_operators(g, 0.2)
    u = initial_data(g)
    tau = 0.02
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        stepper = Stepper(tab, ops, tau)
        v = u.copy()
        for _ in range(3):
            cached = stepper.step(v)
            fresh = Stepper(tab, ops, tau).step(v)
            assert np.abs(cached - fresh).max() <= 1e-14 * max(1.0, np.abs(fresh).max())
            v = cached


# ------------------------------------------------ closed-form testbed oracle

def test_sym_eigen_matches_closed_form_testbed_spectrum():
    ops = build_operators(build_grid(399), 0.2)
    lam = exact_eigen(build_grid(399), 0.2).eigenvalues
    got = sym_eigen(ops.A).eigenvalues
    # relative to ||A||_2 = lam_max: a backward-stable eigh errs by ~eps ||A||
    # in every eigenvalue, so the smallest ones agree only to ~1e-11 each
    assert np.abs(got - lam).max() <= 1e-13 * lam.max()


def closed_form_propagator(tab, ops, tau):
    """R(tau) by the stage recurrence on the identity, with every phi matrix
    Q diag(phi_k(t lam)) Q^T built from the closed-form eigenpairs and the
    scalars phi_k(t lam) from phi_combination's augmented exponential."""
    n = ops.A.shape[0]
    E = exact_eigen(build_grid(n), ops.nu)
    lam, Q = E.eigenvalues, E.eigenvectors

    def phi(k, t):
        if k == 0:
            d = np.exp(t * lam)
        else:  # phi_k(diag(t lam)) applied to the ones vector
            d = phi_combination(np.diag(t * lam), [np.zeros(n)] * (k - 1) + [np.ones(n)])
        return (Q * d) @ Q.T

    def combo(c):
        return sum(t.weight * phi(t.order, -t.scale * tau) for t in c.terms)

    BU = [ops.B]
    for i in range(2, tab.s + 1):
        Ui = phi(0, -tab.c[i - 1] * tau)
        for j in range(1, i):
            if (i, j) in tab.a:
                Ui = Ui + tau * combo(tab.a[(i, j)]) @ BU[j - 1]
        BU.append(ops.B @ Ui)
    R = phi(0, -tau)
    for bi, BUi in zip(tab.b, BU):
        R = R + tau * combo(bi) @ BUi
    return R


def test_propagator_matches_closed_form_eigenbasis_build():
    ops = build_operators(build_grid(15), 0.2)
    tau = 0.02
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        stepper = Stepper(tab, ops, tau)
        got = np.column_stack([stepper.step(e) for e in np.eye(15)])
        want = closed_form_propagator(tab, ops, tau)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_similarity_crosses_paths():
    # D A D^-1 is dense and not symmetric, so (A', B') takes the phi_matrices path while
    # (A, B) steps in A's eigenbasis; the two solutions differ by D exactly.
    g = build_grid(15)
    ops = build_operators(g, 0.2)
    D = np.eye(15) + 0.05 * np.random.default_rng(5).standard_normal((15, 15))
    Dinv = np.linalg.inv(D)
    sim = OperatorPair(A=D @ ops.A @ Dinv, B=D @ ops.B @ Dinv, nu=ops.nu)
    assert sim.eigen is None and ops.eigen is not None
    u0 = initial_data(g)
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        lhs = solve(tab, sim, D @ u0, 0.5, 2.0 ** -5).final
        rhs = D @ solve(tab, ops, u0, 0.5, 2.0 ** -5).final
        assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(rhs).max()


# ------------------------------------------------------------------ solve

def test_solve_single_step_equals_step():
    ops = scalar_ops(2.0, 1.0)
    tab = third_order()
    u0 = np.array([1.0])
    assert solve(tab, ops, u0, 0.25, 0.25).final == pytest.approx(
        Stepper(tab, ops, 0.25).step(u0))


def test_solve_zero_initial_data():
    g = build_grid(10)
    ops = build_operators(g, 0.2)
    res = solve(exponential_euler(), ops, np.zeros(10), 1.0, 0.25)
    assert np.abs(res.final).max() == 0.0


@pytest.mark.parametrize("tau", [0.0, -0.25, np.nan, np.inf])
def test_stepper_rejects_bad_step_size(tau):
    with pytest.raises(ParameterError, match="step size"):
        Stepper(exponential_euler(), scalar_ops(1.0, 0.0), tau)


def _step(ops):
    return Stepper(exponential_euler(), ops, 0.25)


def _rk4(ops):
    return solve_reference_rk4(ops, np.ones(len(ops.A)), 1.0, 2.0 ** -8)


# The pair checks its own shapes, so no reader of it can broadcast a mismatch.
@pytest.mark.parametrize("A, B, reader", [
    pytest.param(np.zeros((2, 3)), np.zeros((2, 2)), _step, id="A-not-square"),
    pytest.param(np.zeros((2, 2)), np.zeros((3, 3)), _step, id="B-other-size"),
    pytest.param([[2.0]], np.zeros((3, 3)), _rk4, id="1x1-A-3x3-B-rk4-reference"),
    pytest.param([[2.0]], np.zeros((3, 3)), default_reference_step,
                 id="1x1-A-3x3-B-reference-step"),
    pytest.param(np.zeros((3, 3)), np.zeros((1, 3)), _rk4, id="B-not-square-rk4-reference"),
    pytest.param(np.zeros((3, 3)), np.zeros((1, 3)), default_reference_step,
                 id="B-not-square-reference-step"),
])
def test_stepper_rejects_operator_shapes(A, B, reader):
    with pytest.raises(DimensionError, match="square and equally sized"):
        reader(OperatorPair(A=A, B=B, nu=1.0))


def test_solve_rejects_wrong_length_initial_state():
    with pytest.raises(DimensionError, match=r"state shape \(3,\) does not match operators \(1\)"):
        solve(exponential_euler(), scalar_ops(1.0, 0.0), np.ones(3), 1.0, 0.25)


@pytest.mark.parametrize("T, tau", [(1.0, 0.3), (1.0, 2.0), (1.0, 0.0), (1.0, -0.25),
                                    (1.0, np.nan), (np.inf, 0.25), (np.nan, 0.25)])
def test_solve_rejects_nondivisible_horizon(T, tau):
    ops = scalar_ops(1.0, 0.0)
    with pytest.raises(ParameterError, match="does not divide"):
        solve(exponential_euler(), ops, np.array([1.0]), T, tau)


def test_solve_linearity():
    g = build_grid(10)
    ops = build_operators(g, 0.2)
    rng = np.random.default_rng(4)
    v, w = rng.standard_normal(10), rng.standard_normal(10)
    tab = second_order(0.5)
    lhs = solve(tab, ops, 2.0 * v - 3.0 * w, 0.5, 0.125).final
    rhs = (2.0 * solve(tab, ops, v, 0.5, 0.125).final
           - 3.0 * solve(tab, ops, w, 0.5, 0.125).final)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_solve_exact_on_semigroup():
    g = build_grid(12)
    ops = build_operators(g, 0.2)
    ops0 = OperatorPair(A=ops.A, B=np.zeros_like(ops.B), nu=ops.nu)
    u0 = initial_data(g)
    for tab in (exponential_euler(), third_order()):
        res = solve(tab, ops0, u0, 1.0, 0.125)
        ref = expm(-1.0 * ops.A) @ u0
        assert np.abs(res.final - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1e-12)


def first_nonfinite_step(stepper, u0, N):
    """The first of N steps, checked one at a time, whose state is not finite."""
    v = stepper.to_basis(u0)
    for i in range(1, N + 1):
        v = stepper.R @ v
        if not np.isfinite(v).all():
            return i
    return None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solve_reports_instability_step():
    # growth factor 1001 per unit step: 1001^102 is finite, 1001^103 overflows
    ops = scalar_ops(0.0, 1000.0)
    with pytest.raises(InstabilityError) as exc:
        solve(exponential_euler(), ops, np.array([1.0]), 200.0, 1.0)
    stepper = Stepper(exponential_euler(), ops, 1.0)
    assert exc.value.step_index == first_nonfinite_step(stepper, np.array([1.0]), 200) == 103


def test_unstable_solve_warns_as_a_checked_loop_does():
    # R = diag(1001, 1): once u_1 overflows, 0 * inf makes u_2 NaN on the next
    # step, so an unchecked loop would add "invalid value" warnings
    ops = OperatorPair(A=np.zeros((2, 2)), B=np.diag([1000.0, 0.0]), nu=0.0)
    u0, tab = np.ones(2), exponential_euler()

    def recorded(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return {(w.category, str(w.message)) for w in caught}

    want = recorded(lambda: first_nonfinite_step(Stepper(tab, ops, 1.0), u0, 200))

    def unstable_solve():
        with pytest.raises(InstabilityError) as exc:
            solve(tab, ops, u0, 200.0, 1.0)
        assert exc.value.step_index == 103
    assert recorded(unstable_solve) == want
    assert {cat for cat, _ in want} <= {RuntimeWarning}


def test_scalar_global_orders_no_reduction():
    # bounded operators: every scheme attains its classical order
    ops = scalar_ops(2.0, 1.0)
    u0 = np.array([1.0])
    exact = np.exp(-1.0)
    taus = [2.0 ** -k for k in range(3, 10)]
    expected = {"euler": 0.98, "rk2": 1.98, "rk3": 2.98}
    for tab, key in ((exponential_euler(), "euler"), (second_order(0.5), "rk2"),
                     (third_order(), "rk3")):
        errs = [abs(solve(tab, ops, u0, 1.0, t).final[0] - exact) for t in taus]
        assert fitted_order(taus, errs) >= expected[key]


# -------------------------------------------------------------------- rk4

def test_rk4_zero_operators_identity():
    ops = OperatorPair(A=np.zeros((3, 3)), B=np.zeros((3, 3)), nu=0.0)
    u0 = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve_reference_rk4(ops, u0, 1.0, 0.25), u0)


def test_rk4_scalar_accuracy():
    out = solve_reference_rk4(scalar_ops(2.0, 1.0), np.array([1.0]), 1.0, 1e-3)
    assert abs(out[0] - np.exp(-1.0)) <= 1e-10


def test_rk4_stability_guard():
    g = build_grid(99)
    ops = build_operators(g, 0.2)
    # rho(A) ~ 4 nu / h^2 = 8000, so tau_ref = 0.01 is far outside the bound
    with pytest.raises(ParameterError):
        solve_reference_rk4(ops, initial_data(g), 1.0, 0.01)


def test_rk4_guard_rejects_before_forming_the_testbed_matrices(monkeypatch):
    # n = 2000: a dense A, B and B - A would take 96 MB; the guard reads the closed form
    def never(L):
        raise AssertionError("the guard took dense row sums")
    monkeypatch.setattr(stepping, "spectral_radius_estimate", never)
    g = build_grid(2000)
    ops = build_operators(g, 0.2)
    with pytest.raises(ParameterError, match="exceeds RK4 stability bound"):
        solve_reference_rk4(ops, initial_data(g), 1.0, 2.0 ** -20)
    assert "A" not in vars(ops) and "B" not in vars(ops)


@pytest.mark.parametrize("pair", ["grid", "split"])
def test_rk4_guard_bound_is_the_pairs_gershgorin_rule(pair):
    ops = build_operators(build_grid(99), 0.2) if pair == "grid" else split_pair()
    rho = stepping._gershgorin_radius(ops)
    tau_ref = 2.0 ** -round(math.log2(rho / 2.7) - 2)  # about four times the bound
    want = (f"tau_ref={tau_ref:g} exceeds RK4 stability bound {2.7 / rho:g} "
            f"(spectral radius <= {rho:g})")
    with pytest.raises(ParameterError) as exc:
        solve_reference_rk4(ops, np.ones(len(ops.A)), 1.0, tau_ref)
    assert str(exc.value) == want


def test_rk4_reference_reports_non_finite_result():
    # rho = 1000 lets tau_ref = 2^-9 pass the guard, but e^2000 overflows
    ops = OperatorPair(A=np.zeros((2, 2)), B=np.diag([1000.0, 0.0]), nu=0.0)
    with pytest.warns(RuntimeWarning), pytest.raises(InstabilityError, match="reference"):
        solve_reference_rk4(ops, np.ones(2), 2.0, 2.0 ** -9)


def test_spectral_radius_estimate_testbed():
    g = build_grid(399)
    ops = build_operators(g, 0.2)
    rho = spectral_radius_estimate(ops.A - ops.B)
    gershgorin = 4.0 * 0.2 / g.h ** 2
    assert rho == pytest.approx(gershgorin, rel=0.05)


def test_rk4_reference_matches_exact_exponential():
    g = build_grid(399)
    ops = build_operators(g, 0.2)
    u0 = initial_data(g)
    u = solve_reference_rk4(ops, u0, 1.0, default_reference_step(ops, 1.0))
    exact = expm(ops.B - ops.A) @ u0
    assert np.abs(u - exact).max() <= 1e-11


def test_spectral_radius_estimate_is_upper_bound():
    g = build_grid(399)
    ops = build_operators(g, 0.2)
    L = ops.A - ops.B
    assert spectral_radius_estimate(L) >= np.abs(np.linalg.eigvals(L)).max()


def test_default_reference_step_bounds():
    g = build_grid(399)
    ops = build_operators(g, 0.2)
    tau_ref = default_reference_step(ops, 1.0)
    rho = spectral_radius_estimate(ops.A - ops.B)
    assert tau_ref <= 2.0 ** -16 + 1e-18
    assert tau_ref <= 0.9 * 2.7 / rho
    assert abs(1.0 / tau_ref - round(1.0 / tau_ref)) <= 1e-9


@pytest.mark.parametrize("ops, radius", [
    (OperatorPair(A=np.full((2, 2), 1e308), B=np.zeros((2, 2)), nu=0.2), "inf"),  # sums overflow
    (OperatorPair(A=np.full((2, 2), np.nan), B=np.zeros((2, 2)), nu=0.2), "nan"),
    (build_operators(build_grid(399), 1e290), "6.4e+295"),  # T/bound ~ 2.6e295 >= 2^48
], ids=["overflow", "nan", "past-2^48"])
def test_default_reference_step_names_the_radius_it_cannot_serve(ops, radius):
    with np.errstate(over="ignore"), pytest.raises(ParameterError) as exc:
        default_reference_step(ops, 1.0)
    assert str(exc.value) == (f"the Gershgorin radius {radius} of B - A leaves no RK4 reference "
                              "step that divides T=1 into fewer than 2^48 steps")


def test_rk4_reference_at_half_the_step_moves_study_errors_under_1pct():
    # |err(tau_ref) - err(tau_ref / 2)| <= ||u_ref(tau_ref) - u_ref(tau_ref / 2)|| for any run,
    # so a shift under 1% of exponential Euler's smallest error (n = 25, tau = 2^-7) moves
    # no error of that study by more
    g = build_grid(25)
    ops, u0 = build_operators(g, 0.2), initial_data(g)
    tau_ref = default_reference_step(ops, 1.0)
    u_ref = solve_reference_rk4(ops, u0, 1.0, tau_ref)
    shift = discrete_norms(g, u_ref - solve_reference_rk4(ops, u0, 1.0, tau_ref / 2)).l2
    err = discrete_norms(g, solve(exponential_euler(), ops, u0, 1.0, 2.0 ** -7).final - u_ref).l2
    assert 0.0 < shift <= 1e-2 * err


def dense_gershgorin(g, nu, rows=256):
    """spectral_radius_estimate(A - B) of the testbed pair on g, its dense rows formed a
    block of rows at a time, so n = 4000 needs no n x n array."""
    n, a, b = g.n_inner, nu / g.h ** 2, 1.0 / (2.0 * g.h)
    rho = 0.0
    for r in range(0, n, rows):
        i = np.arange(r, min(n, r + rows))
        A, B = np.zeros((len(i), n)), np.zeros((len(i), n))
        A[i - r, i] = 2.0 * a
        up, down = i[i < n - 1], i[i > 0]
        A[up - r, up + 1] = A[down - r, down - 1] = -a
        B[up - r, up + 1], B[down - r, down - 1] = b, -b
        rho = max(rho, spectral_radius_estimate(A - B))
    return rho


def test_dense_gershgorin_oracle_forms_the_testbed_pair():
    g = build_grid(25)
    ops = build_operators(g, 0.2)
    assert dense_gershgorin(g, 0.2, rows=7) == spectral_radius_estimate(ops.A - ops.B)


@pytest.mark.parametrize("n", [2, 3, 25, 399, 4000])
def test_reference_radius_closed_form_matches_dense_row_sums(n):
    g = build_grid(n)
    for nu in (1e-3, 0.2, 7.3):  # a < b at nu = 1e-3 for n < 499 (160 < 200 at n = 399)
        ops = build_operators(g, nu)
        rho, dense = stepping._gershgorin_radius(ops), dense_gershgorin(g, nu)
        assert abs(rho - dense) <= 2 * np.spacing(dense), (nu, rho, dense)
        # the former closed form 2a + (a + b) + |a - b|, to the bit
        a, b = nu / g.h ** 2, 1.0 / (2.0 * g.h)
        assert rho == 2.0 * a + (a + b) + (abs(a - b) if n > 2 else 0.0), (nu, rho, a, b)
        assert "A" not in vars(ops)  # the closed form formed no matrix


def test_reference_radius_of_a_general_pair_is_the_dense_row_sum():
    pair = split_pair()
    assert stepping._gershgorin_radius(pair) == spectral_radius_estimate(pair.A - pair.B)


def test_default_reference_step_of_the_testbed_is_unchanged():
    # 2^-16 at the paper's n = 399, nu = 0.2, where rho = 128000 is exact either way, and
    # the dense rule's tau_ref where the stability bound binds (n = 4000)
    for n, want in ((399, 2.0 ** -16), (4000, None)):
        g = build_grid(n)
        if want is None:
            want = 1.0 / math.ceil(1.0 / (0.9 * 2.7 / dense_gershgorin(g, 0.2)))
        assert default_reference_step(build_operators(g, 0.2), 1.0) == want, n


def test_check_divides_admits_every_default_reference_step():
    # T/(T/N) rounds to N within a few ulps of N, past 1e-9 once N exceeds ~4.5e6;
    # reading the Gershgorin rule from the stencil's bands forms no n x n array
    for n in range(100, 20001, 37):
        ops = build_operators(build_grid(n), 0.2)
        for T in (1.0, 0.3, 2.5):
            tau = default_reference_step(ops, T)
            assert stepping.check_divides(T, tau, "tau_ref") == round(T / tau), (n, T)


@pytest.mark.parametrize("tau", [1.0 / (2.0 ** 40 + 0.5), 2.0 ** -48, 1e-300])
def test_check_divides_refuses_step_counts_past_2_48(tau):
    # 2^40 + 0.5 is no integer, and at T/tau >= 2^48 a float can no longer tell one; checked
    # here, not through solve, which would run 2^48 and more steps if the check let them by
    assert stepping.check_divides(1.0, 2.0 ** -47) == 2 ** 47
    with pytest.raises(ParameterError, match="does not divide T=1 into fewer than 2"):
        stepping.check_divides(1.0, tau)


# ------------------------------------------------ banded RK4 reference

def banded(rng, n, w):
    """A seeded n x n standard-normal matrix with zeros outside bandwidth w."""
    i, j = np.indices((n, n))
    return np.where(np.abs(i - j) <= w, rng.standard_normal((n, n)), 0.0)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 399])
def test_band_matmul_matches_dense_product(n):
    rng = np.random.default_rng(n)
    i, j = np.indices((n, n))
    widths = sorted({0, 1, 3, n // 4, n // 2, n - 1})
    for wx in widths:
        for wy in widths:
            X, Y = banded(rng, n, wx), banded(rng, n, wy)
            got = stepping._band_matmul(X, wx, Y, wy, np.zeros((n, n)))
            assert np.all(got[np.abs(i - j) > wx + wy] == 0.0), (wx, wy)
            if n <= 64 or 2 * wx >= n:  # no 64-row block saves work: the dense product
                assert np.array_equal(got, X @ Y), (wx, wy)
            else:
                np.testing.assert_allclose(got, X @ Y, rtol=1e-12, atol=1e-12)
            # an output buffer holding anything inside the product's band is
            # overwritten exactly as a zero one is
            reused = stepping._band_matmul(X, wx, Y, wy, banded(rng, n, wx + wy))
            assert np.array_equal(reused, got), (wx, wy)


def matrix_power_reference(ops, u0, T, tau_ref):
    """The former evaluation: dense P, then np.linalg.matrix_power(P, N) @ u0."""
    L = ops.B - ops.A
    I, M = np.eye(len(L)), tau_ref * L
    P = I + M @ (I + M @ (I / 2.0 + M @ (I / 6.0 + M / 24.0)))
    return np.linalg.matrix_power(P, round(T / tau_ref)) @ u0


def reference_cases():
    g, tau = build_grid(399), 2.0 ** -16
    testbed, u0 = build_operators(g, 0.2), initial_data(g)
    yield pytest.param(testbed, u0, 1.0, tau, id="testbed-N=2^16")
    g100 = build_grid(100)
    base = build_operators(g100, 0.2)
    split = OperatorPair(A=base.A - base.B / 2, B=base.B / 2, nu=0.2)
    yield pytest.param(split, initial_data(g100), 1.0, tau, id="split-n=100")
    # a seeded full-band L = B - A: A symmetric positive definite, B skew
    rng = np.random.default_rng(7)
    G, S = rng.standard_normal((2, 100, 100))
    dense = OperatorPair(A=G @ G.T / 100 + np.eye(100), B=(S - S.T) / 2, nu=0.0)
    tau_dense = 1.0 / spectral_radius_estimate(dense.B - dense.A)
    yield pytest.param(dense, rng.standard_normal(100), 101 * tau_dense, tau_dense, id="dense-L")
    for N in (1, 1001, 3 * 2 ** 12):
        yield pytest.param(testbed, u0, N * tau, tau, id=f"testbed-N={N}")


@pytest.mark.parametrize("ops, u0, T, tau_ref", list(reference_cases()))
def test_rk4_reference_matches_matrix_power(ops, u0, T, tau_ref):
    want = matrix_power_reference(ops, u0, T, tau_ref)
    got = solve_reference_rk4(ops, u0, T, tau_ref)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("lower, upper, zero_rows", [
    (0, 0, ()), (1, 1, ()), (3, 1, (0, 5)), (0, 7, (39,)), (5, 0, range(10)), (39, 2, (38,))])
def test_rk4_reference_reads_the_bandwidth_of_L(monkeypatch, lower, upper, zero_rows):
    """w = max |i - j| over L's nonzeros, wherever they sit and with all-zero rows."""
    rng = np.random.default_rng(lower + upper)
    i, j = np.indices((40, 40))
    L = np.where((j - i <= upper) & (i - j <= lower), rng.standard_normal((40, 40)), 0.0)
    L[list(zero_rows)] = 0.0
    calls = []
    band_matmul = stepping._band_matmul
    monkeypatch.setattr(stepping, "_band_matmul", lambda *a: calls.append(a[1]) or band_matmul(*a))
    ops = OperatorPair(A=np.zeros((40, 40)), B=L, nu=0.0)
    solve_reference_rk4(ops, np.ones(40), 2.0 ** -8, 2.0 ** -8)
    assert calls[0] == max(lower, upper)


@pytest.mark.parametrize("N, squares", [(2 ** 16, 9), (2 ** 16 + 1, 9), (3 * 2 ** 14, 8)])
def test_rk4_reference_squares_until_matvecs_are_cheaper(monkeypatch, N, squares):
    """At n = 399 squaring stops once at most n/2 factors are left, for odd and
    non-power-of-two N too; the other 3 banded products form P."""
    calls = []
    band_matmul = stepping._band_matmul
    monkeypatch.setattr(stepping, "_band_matmul", lambda *a: calls.append(a) or band_matmul(*a))
    g = build_grid(399)
    solve_reference_rk4(build_operators(g, 0.2), initial_data(g), N * 2.0 ** -16, 2.0 ** -16)
    assert len(calls) == 3 + squares


def test_result_records_compare_and_hash_by_identity():
    # a value test would compare their array fields and raise on two equal records
    def records():
        return [sym_eigen(np.eye(2)), stepping.SolveResult(np.ones(2), 1, 1.0),
                probes.ProbeReport(np.arange(2.0), np.ones(2), 1.0, True)]
    ones, twins = records(), records()
    for one, twin in zip(ones, twins):
        assert one == one and (one == twin) is False and one != twin
    assert len({*ones, *ones}) == 3
