"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
The last two checks run the studies and probes of scripts/write_results.py
through the exprk CLI and compare them with the CSVs committed under results/.
Criterion 8 decides boundedness of the Fourier partial sums by a certified
tail bound over all truncation lengths; the probes' own bounded-trend
verdict is printed beside it as a diagnostic only.
"""

import dataclasses
import importlib.util
import math
import pathlib
import re
import time

import numpy as np
import pytest

from exprk import cli, convergence, discretize, probes, stepping
from exprk.matfuncs import expm, phi_matrix, phi_values
from exprk.orderconditions import check_condition, random_stable_matrix
from exprk.tableaus import (PhiCombo, exponential_euler, second_order,
                            third_order)

TESTBED = convergence.ExperimentSpec()  # the paper's: n = 399, nu = 0.2, T = 1, tau = 2^-4..2^-10


def verdict(no, ok, detail):
    print(f"ACCEPTANCE {no}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def testbed_runs():
    """First run of criteria 1-3 experiments; reports, CSV text, wall time."""
    out = {}
    for scheme in ("euler", "rk2", "rk3paper"):
        t0 = time.perf_counter()
        report = convergence.run_experiment(dataclasses.replace(TESTBED, scheme=scheme))
        out[scheme] = (report, convergence.render_csv(report),
                       time.perf_counter() - t0)
    return out


def test_criterion_1_euler_first_order(testbed_runs):
    report, _, seconds = testbed_runs["euler"]
    orders = [report.fitted_order[nm] for nm in ("l1", "l2", "linf")]
    ok = all(0.9 <= p <= 1.15 for p in orders) and seconds < 30.0
    assert verdict(1, ok,
                   f"euler orders l1/l2/linf = "
                   f"{orders[0]:.3f}/{orders[1]:.3f}/{orders[2]:.3f} "
                   f"(band [0.9, 1.15]), runtime {seconds:.1f}s (< 30s)")


def test_criterion_2_second_order_family(testbed_runs):
    report, _, _ = testbed_runs["rk2"]
    orders = [report.fitted_order[nm] for nm in ("l1", "l2", "linf")]
    ok = all(1.85 <= p <= 2.15 for p in orders)
    assert verdict(2, ok,
                   f"rk2(c=1/2) orders l1/l2/linf = "
                   f"{orders[0]:.3f}/{orders[1]:.3f}/{orders[2]:.3f} "
                   f"(band [1.85, 2.15])")


def test_criterion_3_third_order_reduction(testbed_runs):
    report, _, _ = testbed_runs["rk3paper"]
    p = report.fitted_order["l2"]
    ok = 2.4 <= p <= 2.9 and p < 2.95
    assert verdict(3, ok,
                   f"rk3paper L2 order = {p:.3f} "
                   f"(band [2.4, 2.9], strictly < 2.95: order reduction)")


def test_criterion_4_scalar_no_reduction_control():
    a, b = 2.0, 1.0
    ops = discretize.OperatorPair(A=np.array([[a]]), B=np.array([[b]]), nu=0.0)
    u0 = np.array([1.0])
    exact = float(np.exp(1.0 * (b - a)) * u0[0])
    taus = [2.0 ** -k for k in range(3, 10)]
    thresholds = {"euler": 0.98, "rk2": 1.98, "rk3paper": 2.98}
    fitted = {}
    for tab, key in ((exponential_euler(), "euler"), (second_order(0.5), "rk2"),
                     (third_order(), "rk3paper")):
        errs = [abs(stepping.solve(tab, ops, u0, 1.0, t).final[0] - exact)
                for t in taus]
        fitted[key] = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = all(fitted[k] >= thresholds[k] for k in thresholds)
    assert verdict(4, ok,
                   "scalar (a=2, b=1) orders euler/rk2/rk3 = "
                   f"{fitted['euler']:.3f}/{fitted['rk2']:.3f}/"
                   f"{fitted['rk3paper']:.3f} (>= 0.98/1.98/2.98)")


def test_criterion_5_order_condition_suite():
    Z = random_stable_matrix(6, seed=0)

    def resid(tab, no, **kw):
        return max(r / (1.0 + rhs)
                   for r, rhs in check_condition(tab, no, **kw).values())

    rk3, rk2, eul = third_order(), second_order(0.5), exponential_euler()
    checks = {
        "rk3 1-4 strong": all(resid(rk3, no, Z=Z) <= 1e-9 for no in (1, 2, 3, 4)),
        "rk3 5 weak": resid(rk3, 5, mode="weak") <= 1e-12,
        "rk2 1-3 strong": all(resid(rk2, no, Z=Z) <= 1e-9 for no in (1, 2, 3)),
        "rk2 fails 4": resid(rk2, 4, Z=Z) > 1e-9,
        "euler passes 1": resid(eul, 1, Z=Z) <= 1e-9,
        "euler fails 2": resid(eul, 2, Z=Z) > 1e-9,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    assert verdict(5, ok,
                   "order conditions on random 6x6 Z: all six sub-checks hold"
                   if ok else f"failed sub-checks: {failed}")


def taylor_expm(M, terms=30):
    E = np.eye(M.shape[0])
    for j in range(terms, 0, -1):
        E = np.eye(M.shape[0]) + M @ E / j
    return E


def test_criterion_6_kernel_oracles():
    rng = np.random.default_rng(123)

    combo_ok = True
    for _ in range(50):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        M = rng.standard_normal((n, n))
        M *= rng.uniform(0.1, 4.0) / max(np.linalg.norm(M, 1), 1e-12)
        vs = [rng.standard_normal(n) for _ in range(k)]
        got = np.zeros(n)
        from exprk.matfuncs import phi_combination
        got = phi_combination(M, vs)
        want = sum(phi_matrix(i, M) @ v for i, v in enumerate(vs, start=1))
        if np.linalg.norm(got - want) > 1e-9 * max(np.linalg.norm(want), 1e-12):
            combo_ok = False

    expm_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        M = rng.standard_normal((n, n))
        M /= max(np.linalg.norm(M, 1), 1.0)
        err = np.abs(expm(M) - taylor_expm(M)).max()
        if err > 1e-12 * max(np.abs(taylor_expm(M)).max(), 1.0):
            expm_ok = False

    z = np.linspace(-50.0, 0.0, 2001)
    rec_ok = True
    for k in range(0, 4):
        lhs = phi_values(k + 1, z) * z
        rhs = phi_values(k, z) - phi_values(k, np.zeros(1))[0]
        if np.abs(lhs - rhs).max() > 1e-12:
            rec_ok = False

    ok = combo_ok and expm_ok and rec_ok
    assert verdict(6, ok,
                   f"kernel oracles: phi_combination 50/50 to 1e-9 ({combo_ok}), "
                   f"expm vs 30-term Taylor to 1e-12 ({expm_ok}), "
                   f"phi recursion on [-50, 0] to 1e-12 ({rec_ok})")


def test_criterion_7_smoothing_probe():
    grid = discretize.build_grid(399)
    ops = discretize.build_operators(grid, 0.2)
    t_grid = [2.0 ** -k for k in range(12, -1, -1)]
    margins = {}
    ok = True
    for gamma in (0.25, 0.5, 0.75):
        rep = probes.smoothing_probe(ops, gamma, t_grid)
        bound = gamma ** gamma * np.exp(-gamma) + 1e-12
        margins[gamma] = rep.max_value / bound
        ok = ok and rep.max_value <= bound
    assert verdict(7, ok,
                   "smoothing max/(g^g e^-g) for g=0.25/0.5/0.75 = "
                   f"{margins[0.25]:.4f}/{margins[0.5]:.4f}/{margins[0.75]:.4f} "
                   "(all <= 1)")


FOURIER_LENGTHS = [2 ** j for j in range(6, 15)]
FOURIER_POINTS = 2048
# |f_k| <= C k^-p for each coefficient rule, as (name, rule, C, p).
FOURIER_RULES = [("u0", probes.sine_coefficients_initial_data, 32.0 / np.pi ** 3, 3.0),
                 ("1/k", probes.worst_case_coefficients, 1.0, 1.0)]


def tail_certificates(rep, beta, C, p):
    """B(N) = v(N) + 2 kappa T(N), a bound on v(N') for every N' >= N.

    The probe sums a_k phi_k with |a_k| <= D k^-q, D = C pi^(2b-1),
    q = p + 1 - 2b, and |phi_k| <= 2 on [0, 1], so past N the sum moves by
    at most 2 T(N) = 2 D N^(1-q) / (q-1) in max norm. Each probe norm on M
    points is at most kappa = M/(M-1) times the max norm. B is infinite
    when q <= 1: the coefficients are then not absolutely summable.
    """
    q = p + 1.0 - 2.0 * beta
    if q <= 1.0:
        return np.full(rep.values.shape, np.inf)
    D = C * np.pi ** (2.0 * beta - 1.0)
    kappa = FOURIER_POINTS / (FOURIER_POINTS - 1)
    return rep.values + 2.0 * kappa * D * rep.grid ** (1.0 - q) / (q - 1.0)


def certified(rep, bounds):
    """A finite B(N_max), and no sampled v(N_i) above B(N_j) for j <= i."""
    return bool(np.isfinite(bounds[-1])
                and np.all(rep.values <= np.minimum.accumulate(bounds)))


def test_criterion_8_fourier_lemma_probe():
    t0 = time.perf_counter()
    cases = [(-0.01, "l1"), (0.24, "l2"), (0.49, "linf")]
    runs = []
    for beta, norm in cases:
        for rule_name, rule, C, p in FOURIER_RULES:
            rep = probes.fourier_beta_probe(rule, beta, FOURIER_LENGTHS, norm,
                                            x_grid=FOURIER_POINTS)
            runs.append(((beta, norm, rule_name), rep, tail_certificates(rep, beta, C, p)))
    seconds = time.perf_counter() - t0
    failed = [case for case, rep, bounds in runs if not certified(rep, bounds)]
    ok = not failed and seconds < 10.0
    detail = "; ".join(
        f"({beta:g}, {norm}, {rule_name}) B={bounds[-1]:.4g} "
        f"trend={'bounded' if rep.bounded else 'unbounded'}"
        for (beta, norm, rule_name), rep, bounds in runs)
    assert verdict(8, ok,
                   f"Fourier probe runtime {seconds:.1f}s (< 10s); certified "
                   f"bound B(N_max) and trend diagnostic per case: {detail}"
                   + (f"; uncertified: {failed}" if failed else ""))


def test_criterion_8_negative_control():
    """At beta = 0.5 the linf case with 1/k coefficients has no certificate."""
    rep = probes.fourier_beta_probe(probes.worst_case_coefficients, 0.5,
                                    FOURIER_LENGTHS, "linf", x_grid=FOURIER_POINTS)
    bounds = tail_certificates(rep, 0.5, 1.0, 1.0)
    rising = bool(np.all(np.diff(rep.values) > 0))
    ok = not np.isfinite(bounds).any() and not certified(rep, bounds) and rising
    assert verdict("8 control", ok,
                   f"(0.5, linf, 1/k) uncertified (B={bounds[-1]:.4g}), sampled "
                   f"linf rising {rep.values[0]:.3f} -> {rep.values[-1]:.3f}: "
                   f"{rising}")


def test_criterion_8_tail_diagnostic():
    """Far past the sampled range, (0.49, linf, 1/k) stays below its B(2^14)."""
    lengths = [2 ** j for j in range(6, 23)]
    rep = probes.fourier_beta_probe(probes.worst_case_coefficients, 0.49,
                                    lengths, "linf", x_grid=FOURIER_POINTS)
    at = lengths.index(FOURIER_LENGTHS[-1])
    B = tail_certificates(rep, 0.49, 1.0, 1.0)[at]
    ok = bool(np.all(rep.values <= B))
    assert verdict("8 tail", ok,
                   f"(0.49, linf, 1/k) sampled linf {rep.values[at]:.3f} at N=2^14 -> "
                   f"{rep.values[-1]:.3f} at N=2^22, all <= B(2^14)={B:.4g}: {ok}")


def test_criterion_9_determinism(testbed_runs):
    identical = {}
    for scheme, (report, csv_text, _) in testbed_runs.items():
        rerun = convergence.run_experiment(dataclasses.replace(TESTBED, scheme=scheme))
        identical[scheme] = (convergence.render_csv(rerun) == csv_text)
    ok = all(identical.values())
    assert verdict(9, ok,
                   "byte-identical CSVs on rerun: "
                   + ", ".join(f"{k}={v}" for k, v in identical.items()))


ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
# The benchmark's tolerances on a study's errors and on a probe's values
# (perfbench/workloads.py).
RESULTS_RTOL, RESULTS_ATOL = 1e-6, 1e-13
PROBE_RTOL = 1e-8


def csv_fields(text):
    """Per line, the (key, value) of each comma- or space-separated field."""
    return [[f.rpartition("=")[::2] for f in re.split("[ ,]", line)]
            for line in text.splitlines()]


def same_value(got, want, rtol=RESULTS_RTOL, atol=RESULTS_ATOL):
    """Numbers within the tolerance; any other text equal."""
    try:
        return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=atol)
    except ValueError:
        return got == want


def same_fields(got_text, want_text, rtol=RESULTS_RTOL, atol=RESULTS_ATOL):
    """The same lines and keys; numbers within the tolerance, any other text equal."""
    got, want = csv_fields(got_text), csv_fields(want_text)
    keys = [[[k for k, _ in line] for line in fields] for fields in (got, want)]
    return keys[0] == keys[1] and all(same_value(g, w, rtol, atol) for gl, wl in zip(got, want)
                                      for (_, g), (_, w) in zip(gl, wl))


def script_runs(command, kinds):
    """{file: exprk argv} of scripts/write_results.py's `command` runs; their files must
    be the committed results/{kind}_*.csv, and the table must name every committed file."""
    spec = importlib.util.spec_from_file_location("write_results",
                                                  ROOT / "scripts" / "write_results.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert sorted(script.RESULTS) == sorted(p.name for p in RESULTS.glob("*.csv"))
    runs = {name: argv for name, argv in script.RESULTS.items() if argv[0] == command}
    assert sorted(runs) == sorted(p.name for kind in kinds for p in RESULTS.glob(f"{kind}_*.csv"))
    return runs


def mismatched_runs(runs, out_dir, rtol, atol):
    """The files of runs whose cli.main output into out_dir differs from results/ beyond
    the tolerance (same_fields)."""
    mismatched = []
    for name, argv in runs.items():
        assert cli.main([*argv, "--out", str(out_dir / name)]) != cli.EXIT_USAGE
        if not same_fields((out_dir / name).read_text(), (RESULTS / name).read_text(), rtol, atol):
            mismatched.append(name)
    return mismatched


def test_committed_results_match(tmp_path):
    """scripts/write_results.py's convergence runs through cli.main: header and comment keys
    exactly, every number within the benchmark's tolerance."""
    runs = script_runs("convergence", ["convergence"])
    mismatched = mismatched_runs(runs, tmp_path, RESULTS_RTOL, RESULTS_ATOL)
    assert verdict("results", not mismatched,
                   f"{len(runs)} `exprk convergence` runs match results/convergence_*.csv within "
                   f"{RESULTS_RTOL:g} rel + {RESULTS_ATOL:g} abs"
                   + (f"; mismatched: {mismatched}" if mismatched else ""))


def test_committed_probe_results_match(tmp_path):
    """scripts/write_results.py's probe runs through cli.main: the same files, the same keys,
    verdicts and labels, and every number within the benchmark's probe tolerance."""
    runs = script_runs("probe", ["smoothing", "relbound", "fourier"])
    mismatched = mismatched_runs(runs, tmp_path, PROBE_RTOL, 0.0)
    assert verdict("probe results", not mismatched,
                   f"{len(runs)} probe runs match results/ within {PROBE_RTOL:g} rel"
                   + (f"; mismatched: {mismatched}" if mismatched else ""))
