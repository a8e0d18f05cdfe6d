"""Stiff order-condition residuals for the built-in schemes."""

import dataclasses

import numpy as np
import pytest

from exprk import matfuncs, orderconditions
from exprk.discretize import build_grid, build_operators
from exprk.errors import ContractError, DimensionError, ParameterError
from exprk.matfuncs import phi_matrix
from exprk.orderconditions import (PASS_TOLERANCE, ConditionResidual, check_condition,
                                   first_failure, full_report, random_stable_matrix)
from exprk.tableau_io import parse_tableau
from exprk.tableaus import (ORDER_CLAIMS, PhiCombo, PhiTerm, exponential_euler, second_order,
                            third_order)


def make_Z(n=10, tau=0.1, nu=0.2):
    return -tau * build_operators(build_grid(n), nu).A


# ------------------------------------------------------------ input checks

def test_rejects_bad_condition_number():
    with pytest.raises(ParameterError):
        check_condition(exponential_euler(), 6)


def test_rejects_bad_mode():
    with pytest.raises(ParameterError):
        check_condition(exponential_euler(), 1, mode="loose")


def test_rejects_nonsquare_z():
    with pytest.raises(DimensionError):
        check_condition(exponential_euler(), 1, Z=np.zeros((2, 3)))


@pytest.mark.parametrize("mode", ["weak", "strong", "weak-b-only"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_z_in_every_mode(mode, bad):
    """Weak mode reads only Z's size, but a non-finite Z is still rejected."""
    Z = np.zeros((3, 3))
    Z[1, 2] = bad
    with pytest.raises(ContractError, match="^Z contains non-finite entries$"):
        check_condition(third_order(), 5, Z=Z, mode=mode)


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_nonsquare_z_message(mode):
    with pytest.raises(DimensionError, match=r"^Z must be square, got shape \(2, 3\)$"):
        check_condition(exponential_euler(), 1, Z=np.zeros((2, 3)), mode=mode)
    with pytest.raises(DimensionError, match=r"^Z must be square, got shape \(4,\)$"):
        check_condition(exponential_euler(), 1, Z=np.zeros(4), mode=mode)


def test_rejects_mismatched_j():
    with pytest.raises(DimensionError):
        check_condition(third_order(), 5, Z=np.zeros((3, 3)), J=np.eye(2))


@pytest.mark.parametrize("mode", ["weak", "weak-b-only"])
def test_weak_modes_check_j_against_the_callers_z(mode):
    with pytest.raises(DimensionError, match=r"does not match Z \(3x3\)"):
        check_condition(third_order(), 5, Z=np.zeros((3, 3)), J=np.eye(2), mode=mode)
    check_condition(third_order(), 5, Z=np.zeros((3, 3)), J=np.eye(3), mode=mode)


@pytest.mark.parametrize("Z", [None, "random", "testbed"])
def test_one_phi_matrices_call_per_condition(Z, monkeypatch):
    Zm = {"random": random_stable_matrix(6, 3), "testbed": make_Z()}.get(Z)
    calls, phi_matrices = [], orderconditions.phi_matrices

    def counted(M, keys):
        calls.append(set(keys))
        return phi_matrices(M, keys)

    def never(*args, **kwargs):
        raise AssertionError("a combo evaluated its own phi matrices")
    monkeypatch.setattr(orderconditions, "phi_matrices", counted)
    monkeypatch.setattr(PhiCombo, "eval_matrix", never)
    tab = third_order()
    for no in (1, 2, 3, 4, 5):
        for mode in ("strong", "weak", "weak-b-only"):
            check_condition(tab, no, Zm, mode=mode)
    # every condition and mode reads the one tableau-wide key set
    assert len(calls) == 15
    assert all(keys == orderconditions._phi_keys(tab) for keys in calls)
    # the combos' keys and the right-hand sides; no step's phi_0 at the nodes
    assert orderconditions._phi_keys(tab) == {
        (1, 1.0), (2, 1.0), (3, 1.0), (1, 0.5), (2, 0.5)}


def test_phi_keys_keep_a_phi0_that_a_combo_names():
    tab = parse_tableau("c = 0,0.5\na[2][1] = scale:0.5 phi:0 w:0.5 + scale:0.5 phi:1 w:-0.5\n"
                        "b[1] = scale:1 phi:1 w:1\n")
    assert (0, 0.5) in orderconditions._phi_keys(tab)
    assert (0, 1.0) not in orderconditions._phi_keys(tab)
    (resid, _), = check_condition(tab, 3, make_Z()).values()
    # a_21 = (phi_0(Z/2) - phi_1(Z/2)) / 2 against c phi_1(c Z) = phi_1(Z/2) / 2
    Zh = 0.5 * make_Z()
    want = np.abs(0.5 * (phi_matrix(0, Zh) - phi_matrix(1, Zh)) - 0.5 * phi_matrix(1, Zh)).max()
    assert resid == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------- exact algebra

@pytest.mark.parametrize("Z", [None, "random", "testbed"])
def test_euler_satisfies_condition_1_strongly(Z):
    Zm = {"random": random_stable_matrix(6, 3), "testbed": make_Z()}.get(Z)
    (resid, rhs), = check_condition(exponential_euler(), 1, Zm).values()
    assert resid <= 1e-13 * (1.0 + rhs)


def test_euler_condition_2_residual_is_phi2():
    Z = random_stable_matrix(6, 7)
    (resid, _), = check_condition(exponential_euler(), 2, Z).values()
    assert resid == pytest.approx(np.abs(phi_matrix(2, Z)).max(), rel=1e-12)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
def test_rk2_family_conditions_1_2_3_strong(c):
    tab = second_order(c)
    Z = make_Z()
    for no in (1, 2, 3):
        for resid, rhs in check_condition(tab, no, Z).values():
            assert resid <= 1e-12 * (1.0 + rhs)


def test_rk2_fails_condition_4():
    (resid, rhs), = check_condition(second_order(0.5), 4, make_Z()).values()
    assert resid > 1e-3 * (1.0 + rhs)


def test_rk3_conditions_1_to_4_strong():
    tab = third_order()
    Z = make_Z()
    for no in (1, 2, 3, 4):
        for resid, rhs in check_condition(tab, no, Z).values():
            assert resid <= 1e-12 * (1.0 + rhs)


def test_rk3_condition_5_weak_not_strong():
    tab = third_order()
    Z = make_Z()
    (strong, _), = check_condition(tab, 5, Z, mode="strong").values()
    (weak, _), = check_condition(tab, 5, mode="weak").values()
    (weak_b, _), = check_condition(tab, 5, Z, mode="weak-b-only").values()
    assert strong > 1e-4
    assert weak <= 1e-14
    assert weak_b <= 1e-12


def test_condition_3_is_stage_resolved():
    out = check_condition(third_order(), 3, make_Z())
    assert set(out) == {2, 3}


def test_weak_mode_ignores_supplied_z():
    # weak form evaluates every phi at the zero matrix: Z's entries never enter
    a = check_condition(third_order(), 1, make_Z(), mode="weak")
    b = check_condition(third_order(), 1, mode="weak")
    assert a == b


@pytest.mark.parametrize("tab", [second_order(0.5), second_order(0.25), third_order()],
                         ids=["rk2(1/2)", "rk2(1/4)", "rk3paper"])
def test_weak_condition_5_takes_the_callers_j(tab):
    # at Z = 0 every coefficient is a multiple of I, so the weak residual with
    # J is the scalar one times max_ij |J_ij|
    Z = random_stable_matrix(6, 3)
    J = np.random.default_rng(5).standard_normal((6, 6))
    (scalar, _), = check_condition(tab, 5, mode="weak").values()
    (with_j, _), = check_condition(tab, 5, Z, J=J, mode="weak").values()
    assert with_j == pytest.approx(scalar * np.abs(J).max(), rel=1e-14, abs=1e-16)
    # and without J, Z's size does not move the residual
    assert check_condition(tab, 5, Z, mode="weak") == check_condition(tab, 5, mode="weak")


def test_condition_5_scales_with_j():
    tab = third_order()
    Z = make_Z()
    (r1, _), = check_condition(tab, 5, Z, J=np.eye(10), mode="strong").values()
    (r2, _), = check_condition(tab, 5, Z, J=2.0 * np.eye(10), mode="strong").values()
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_rk2_condition_4_residual_near_weak_limit():
    # as Z -> 0 the condition-4 defect tends to |c^2/(4c) - 1/6| = 1/24 for c = 1/2
    (resid, _), = check_condition(second_order(0.5), 4, 1e-8 * make_Z()).values()
    assert resid == pytest.approx(1.0 / 24.0, rel=1e-6)


# ----------------------------------------------------------------- report

def test_full_report_deterministic():
    a = full_report(third_order(), z_seed=11)
    b = full_report(third_order(), z_seed=11)
    assert a == b and a.to_table() == b.to_table()


@pytest.mark.parametrize("seed", [0, 1, 11])
@pytest.mark.parametrize("tab", [exponential_euler(), second_order(0.5), third_order()],
                         ids=["euler", "rk2", "rk3paper"])
def test_full_report_rows_equal_per_condition_residuals(tab, seed):
    # full_report shares one phi table per Z; check_condition builds one per
    # condition over only its keys. The residuals must agree exactly.
    want = []
    specs = [("zero", None, "weak"), ("random6", random_stable_matrix(6, seed), "strong"),
             ("testbed10", make_Z(), "strong")]
    for z_spec, Z, mode in specs:
        for no in (1, 2, 3, 4, 5):
            for stage, (resid, rhs) in check_condition(tab, no, Z, mode=mode).items():
                want.append(ConditionResidual(no, stage, mode, z_spec, resid, rhs))
        if mode == "strong":
            (resid, rhs), = check_condition(tab, 5, Z, mode="weak-b-only").values()
            want.append(ConditionResidual(5, 0, "weak-b-only", z_spec, resid, rhs))
            Jr = np.random.default_rng(seed + 1).standard_normal(Z.shape)
            (resid, rhs), = check_condition(tab, 5, Z, J=Jr, mode=mode).values()
            want.append(ConditionResidual(5, 0, mode, z_spec + "+randJ", resid, rhs))
    assert full_report(tab, seed).rows == tuple(want)


@pytest.mark.parametrize("tab", [exponential_euler(), second_order(0.5), third_order()],
                         ids=["euler", "rk2", "rk3paper"])
def test_full_report_runs_no_pade_chain(tab, monkeypatch):
    # no condition reads phi_0 of a built-in scheme, so no phi table needs one
    def never(*args, **kwargs):
        raise AssertionError("full_report ran a phi_0 (Pade) chain")
    monkeypatch.setattr(matfuncs, "_expm_levels", never)
    assert first_failure(tab.claims, full_report(tab, 0)) is None


@pytest.mark.parametrize("tab", [exponential_euler(), second_order(0.5), third_order()],
                         ids=["euler", "rk2", "rk3paper"])
def test_full_report_decomposes_nothing(tab, monkeypatch):
    # the symmetric testbed10 Z goes through the same chains as random6
    def never(*args, **kwargs):
        raise AssertionError("full_report reached eigh")
    monkeypatch.setattr(np.linalg, "eigh", never)
    assert first_failure(tab.claims, full_report(tab, 0)) is None


def test_full_report_covers_specs_and_randj():
    rep = full_report(third_order(), 0)
    specs = {r.z_spec for r in rep.rows}
    assert specs == {"zero", "random6", "testbed10",
                     "random6+randJ", "testbed10+randJ"}
    assert {r.condition for r in rep.rows} == {1, 2, 3, 4, 5}


def test_random_stable_matrix_properties():
    Z = random_stable_matrix(6, 0)
    assert np.linalg.eigvals(Z).real.max() < 0.0
    assert np.linalg.norm(Z, 1) <= 5.0 + 1e-12
    assert np.array_equal(Z, random_stable_matrix(6, 0))


def test_claims_satisfied_all_builtins():
    for tab in (exponential_euler(), second_order(0.5), third_order()):
        for seed in (0, 1, 2, 3):
            report = full_report(tab, seed)
            assert first_failure(tab.claims, report) is None
            assert [r.z_spec for r in report.rows if r.mode == "weak-b-only"] == \
                ["random6", "testbed10"]


def test_pass_tolerance_is_tight():
    assert PASS_TOLERANCE == 1e-9


def weak5():
    """rk3paper with E(Z) = phi_1(Z) - 2 phi_2(Z), which vanishes at Z = 0, moved from
    a_31 to a_32: conditions 1-4 still hold strongly, and condition 5 holds at Z = 0 only."""
    tab, a = third_order(), dict(third_order().a)

    def plus(key, *terms):
        a[key] = PhiCombo(a[key].terms + tuple(PhiTerm(*t) for t in terms))
    plus((3, 1), (1.0, 1, -1.0), (1.0, 2, 2.0))
    plus((3, 2), (1.0, 1, 1.0), (1.0, 2, -2.0))
    return dataclasses.replace(tab, name="weak5", a=a)


def test_weak_claim_reads_the_weak_b_only_rows():
    report = full_report(weak5(), 0)
    zero_rows = [r for r in report.rows if r.z_spec == "zero"]
    assert all(r.passed for r in zero_rows)  # the classical conditions hold
    strong = {no: "strong" for no in (1, 2, 3, 4)}
    assert first_failure(strong, report) is None
    row = first_failure(ORDER_CLAIMS[3], report)
    assert (row.condition, row.mode, row.z_spec) == (5, "weak-b-only", "random6")
    assert row.residual == pytest.approx(1.19e-2, rel=1e-2)
    (resid, _), = check_condition(weak5(), 5, make_Z(), mode="weak-b-only").values()
    assert resid == pytest.approx(9.55e-3, rel=1e-2)


def test_table_columns_line_up():
    report = full_report(third_order(), 0)
    header, *lines = report.to_table().splitlines()
    at = header.index("residual") + len("residual") - 12  # the right-aligned 12-wide field
    assert len(lines) == len(report.rows) and len({len(line) for line in lines + [header]}) == 1
    for line, r in zip(lines, report.rows):
        assert line[at - 2:at] == "  " and line[at:at + 12].strip() == f"{r.residual:.3e}", line
        assert line[at + 14:].strip() == ("pass" if r.passed else "fail"), line
