"""Convergence harness: order fitting, experiment runs, CSV round-trips."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

from exprk import discretize, stepping
from exprk.convergence import (FLAG_IDENTICAL, FLAG_OK, FLAG_UNSTABLE, NORMS,
                               ConvergenceRow, ExperimentSpec, fit_order,
                               render_csv, run_experiment, write_csv)
from exprk.errors import InsufficientDataError, ParameterError
from exprk.tableau_io import parse_tableau
from exprk.tableaus import exponential_euler
from test_cli import parse_csv


def synthetic_rows(order, taus=(0.5, 0.25, 0.125, 0.0625)):
    return [ConvergenceRow(t, t ** order, t ** order, t ** order) for t in taus]


# -------------------------------------------------------------- fit_order

@pytest.mark.parametrize("order", [1.0, 2.0, 3.0])
def test_fit_order_exact_power_law(order):
    fitted, pairwise = fit_order(synthetic_rows(order))
    for nm in ("l1", "l2", "linf"):
        assert fitted[nm] == pytest.approx(order, abs=1e-12)
        assert pairwise[nm] == pytest.approx((order,) * 3, abs=1e-12)


def test_fit_order_skips_flagged_rows():
    rows = synthetic_rows(2.0)
    rows[1] = ConvergenceRow(rows[1].tau, math.nan, math.nan, math.nan,
                             FLAG_UNSTABLE)
    fitted, pairwise = fit_order(rows)
    assert fitted["l2"] == pytest.approx(2.0, abs=1e-12)
    # the non-halving gap across the removed row drops from the pairwise list
    assert len(pairwise["l2"]) == 1


def test_fit_order_insufficient_data():
    rows = [ConvergenceRow(0.5, math.nan, math.nan, math.nan, FLAG_UNSTABLE),
            ConvergenceRow(0.25, 1e-3, 1e-3, 1e-3)]
    with pytest.raises(InsufficientDataError):
        fit_order(rows)


# ----------------------------------------------------------- spec checks

def test_spec_rejects_short_tau_list():
    with pytest.raises(ParameterError):
        ExperimentSpec(tau_list=(0.25, 0.125)).validate()


def test_spec_rejects_unsorted_tau_list():
    with pytest.raises(ParameterError):
        ExperimentSpec(tau_list=(0.125, 0.25, 0.0625, 0.03125)).validate()


def test_spec_rejects_nondivisible_tau():
    with pytest.raises(ParameterError):
        ExperimentSpec(T=1.0, tau_list=(0.3, 0.15, 0.075, 0.0375)).validate()


def test_node_c_outside_0_1_is_refused_for_every_scheme_and_tableau():
    for kw in ({"scheme": "euler"}, {"scheme": "rk3paper"}, {"tableau": exponential_euler()}):
        with pytest.raises(ParameterError, match=r"^node c must be in \(0, 1\], got 2.0$"):
            ExperimentSpec(c=2.0, **kw).resolve_tableau()


def test_spec_defaults_match_testbed():
    spec = ExperimentSpec()
    assert (spec.n_inner, spec.nu, spec.T) == (399, 0.2, 1.0)
    assert spec.tau_list == tuple(2.0 ** -k for k in range(4, 11))
    spec.validate()


# ------------------------------------------------------------ experiments

SMALL = dict(n_inner=25, tau_list=tuple(2.0 ** -k for k in range(3, 8)))


def test_run_experiment_small_grid_orders():
    rep = run_experiment(ExperimentSpec(scheme="rk2", **SMALL))
    assert all(r.flag == FLAG_OK for r in rep.rows)
    assert 1.8 <= rep.fitted_order["l2"] <= 2.2
    assert np.all(np.diff([r.err_l2 for r in rep.rows]) < 0)


def test_run_experiment_custom_tableau_overrides_scheme():
    rep = run_experiment(ExperimentSpec(scheme="rk3paper",
                                        tableau=exponential_euler(), **SMALL))
    assert rep.scheme == "euler"
    assert 0.9 <= rep.fitted_order["l2"] <= 1.15


def test_run_experiment_divides_T_once_for_the_reference_step():
    """The stability-derived step is kept as it is unless min(tau_list)/16 caps it."""
    spec = ExperimentSpec(n_inner=255, nu=1.0, scheme="euler")
    ops = discretize.build_operators(discretize.build_grid(255), 1.0)
    tau_ref = stepping.default_reference_step(ops, spec.T)
    assert round(1.0 / tau_ref) == 107879 and run_experiment(spec).tau_ref == tau_ref
    capped = ExperimentSpec(n_inner=10, scheme="euler", tau_list=(2.0 ** -3, 2.0 ** -4,
                                                                  2.0 ** -5, 2.0 ** -13))
    assert run_experiment(capped).tau_ref == 2.0 ** -17


def amplified_euler_study(weight):
    """Exponential Euler with B scaled by weight, n = 31, tau = 2^-1..2^-7."""
    tab = parse_tableau(f"c = 0\nb[1] = scale:1 phi:1 w:{weight}\n")
    return run_experiment(ExperimentSpec(n_inner=31, tableau=tab,
                                         tau_list=tuple(2.0 ** -k for k in range(1, 8))))


def test_run_experiment_fits_finite_orders_past_square_overflow():
    # the tau = 2^-7 error is ~2e260, whose square overflows
    rep = amplified_euler_study(1000)
    assert [r.flag for r in rep.rows] == [FLAG_OK] * 7
    assert rep.rows[-1].err_l1 > 1e250 and math.isfinite(rep.rows[-1].err_l2)
    assert all(math.isfinite(order) for order in rep.fitted_order.values())


def test_run_experiment_flags_unstable_row_and_fits_the_rest():
    with pytest.warns(RuntimeWarning):
        rep = amplified_euler_study(1e4)
    assert [r.flag for r in rep.rows] == [FLAG_OK] * 6 + [FLAG_UNSTABLE]
    assert all(math.isnan(rep.rows[-1].err(nm)) for nm in ("l1", "l2", "linf"))
    assert rep.fitted_order == fit_order(rep.rows[:-1])[0]


# -------------------------------------------------------------------- CSV

def test_csv_format_and_roundtrip(tmp_path):
    rep = run_experiment(ExperimentSpec(scheme="euler", **SMALL))
    text = render_csv(rep)
    lines = text.splitlines()
    assert lines[0] == "tau,err_l1,err_l2,err_linf,flag"
    assert lines[-2].startswith("# fitted_order_l1=")
    assert lines[-1].startswith("# scheme=euler n=25")
    assert parse_csv(text) == rep.rows

    path = tmp_path / "out.csv"
    write_csv(render_csv(rep), path)
    raw = path.read_bytes()
    assert raw.decode() == text and b"\r" not in raw


def test_csv_header_reads_norms_and_matches_committed_results():
    rep = run_experiment(ExperimentSpec(scheme="euler", **SMALL))
    header = render_csv(rep).splitlines()[0]
    assert header == ",".join(["tau"] + ["err_" + nm for nm in NORMS] + ["flag"])
    committed = sorted((pathlib.Path(__file__).resolve().parent.parent / "results")
                       .glob("convergence_*.csv"))
    assert len(committed) == 3
    for path in committed:
        assert path.read_text().splitlines()[0] == header, path.name


def test_row_err_reads_the_field_of_each_norm():
    row = ConvergenceRow(0.5, 1.0, 2.0, 3.0)
    assert [row.err(nm) for nm in NORMS] == [row.err_l1, row.err_l2, row.err_linf]


def test_row_error_fields_are_the_norms_in_order():
    # rows are built positionally and their err_<name> fields replaced by name, so the
    # field names restate NORMS; a mismatch fails here, not mid-study in ConvergenceRow.err
    names = [f.name for f in dataclasses.fields(ConvergenceRow)]
    assert names[1:1 + len(NORMS)] == ["err_" + nm for nm in NORMS]


def test_csv_preserves_17_digits():
    row = ConvergenceRow(0.125, 1.0 / 3.0, 2.0 / 7.0, 1e-15)
    rep_text = "tau,err_l1,err_l2,err_linf,flag\n" + \
        f"{row.tau:.17g},{row.err_l1:.17g},{row.err_l2:.17g},{row.err_linf:.17g},ok\n"
    (parsed,) = parse_csv(rep_text)
    assert parsed == row


def test_emit_csv_bad_path():
    rep = run_experiment(ExperimentSpec(scheme="euler", **SMALL))
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv(render_csv(rep), "/no/such/dir/out.csv")


def test_identical_flag_when_error_is_zero(monkeypatch):
    # a reference that is the smallest tau's own final state leaves that row no error
    spec = ExperimentSpec(scheme="euler", **SMALL)

    def own_final(ops, u0, T, tau_ref):
        return stepping.solve(spec.resolve_tableau(), ops, u0, T, spec.tau_list[-1]).final
    monkeypatch.setattr(stepping, "solve_reference_rk4", own_final)
    rep = run_experiment(spec)
    assert [r.flag for r in rep.rows] == [FLAG_OK] * 4 + [FLAG_IDENTICAL]
    assert rep.fitted_order == fit_order(rep.rows[:-1])[0]
