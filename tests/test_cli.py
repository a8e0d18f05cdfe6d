"""CLI behavior: subcommands, config merging, exit codes, diagnostics."""

import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from exprk import cli, convergence, orderconditions, probes, stepping, tableaus
from exprk.cli import main, read_config
from exprk.convergence import ConvergenceRow, ExperimentSpec
from exprk.tableau_io import LocatedError, parse_tableau
from exprk.tableaus import BUILTIN_SCHEMES, ORDER_CLAIMS, exponential_euler, third_order

FAST = ["--n", "25", "--tau-list", "0.125,0.0625,0.03125,0.015625"]


def parse_csv(text):
    """The data rows of a convergence CSV, as ConvergenceRow tuples."""
    rows = []
    for line in text.splitlines()[1:]:
        if line.startswith("#") or not line.strip():
            continue
        tau, e1, e2, einf, flag = line.split(",")
        rows.append(ConvergenceRow(float(tau), float(e1), float(e2), float(einf), flag))
    return tuple(rows)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ help

def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("convergence", "check-order", "probe", "solve"):
        assert name in out


@pytest.mark.parametrize("command", ["convergence", "check-order", "probe", "solve"])
def test_help_states_each_default_once(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "(default: None)" not in out
    options = out.split("options:", 1)[1]
    for entry in re.split(r"\n(?=  -)", options):
        assert entry.count("default") <= 1, entry


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ----------------------------------------------------------- convergence

def test_convergence_writes_csv_and_prints_orders(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, stdout, _ = run(["convergence", "--scheme", "euler",
                           "--out", str(out)] + FAST, capsys)
    assert code == 0
    assert "fitted_order_l2=" in stdout and str(out) in stdout
    rows = parse_csv(out.read_text())
    assert len(rows) == 4 and all(r.flag == "ok" for r in rows)


def test_convergence_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = rk2\nn = 50\n"
                   "tau_list = 0.125,0.0625,0.03125,0.015625\n"
                   f"out = {tmp_path / 'a.csv'}\n")
    code, stdout, _ = run(["convergence", "--config", str(cfg), "--n", "25"],
                          capsys)
    assert code == 0
    text = (tmp_path / "a.csv").read_text()
    assert "scheme=rk2" in text and "n=25" in text  # flag wins over file


def test_convergence_config_file_applies_when_no_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = euler\nn = 25\n"
                   "tau_list = 0.125,0.0625,0.03125,0.015625\n"
                   f"out = {tmp_path / 'b.csv'}\n")
    code, _, _ = run(["convergence", "--config", str(cfg)], capsys)
    assert code == 0
    assert "scheme=euler n=25" in (tmp_path / "b.csv").read_text()


def test_convergence_missing_config_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, stderr = run(["convergence", "--config", str(missing)], capsys)
    assert code == 2 and str(missing) in stderr


def test_convergence_short_tau_list_exit_2(capsys):
    code, _, stderr = run(["convergence", "--tau-list", "0.25,0.125"], capsys)
    assert code == 2 and "tau_list" in stderr


def test_convergence_duplicate_tau_exit_2(capsys):
    code, _, stderr = run(["convergence", "--tau-list", "0.5,0.5,0.25,0.125"], capsys)
    assert code == 2 and "strictly decreasing" in stderr


def test_convergence_unknown_config_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stepsize = 0.1\n")
    code, _, stderr = run(["convergence", "--config", str(cfg)], capsys)
    assert code == 2 and "stepsize" in stderr and "1" in stderr


def test_convergence_deterministic_reruns(tmp_path, capsys):
    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for p in paths:
        code, _, _ = run(["convergence", "--scheme", "euler",
                          "--out", str(p)] + FAST, capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ------------------------------------------------------------ check-order

@pytest.mark.parametrize("scheme", BUILTIN_SCHEMES)
def test_check_order_builtin_meets_its_claims(capsys, scheme):
    code, stdout, _ = run(["check-order", "--scheme", scheme], capsys)
    assert code == 0 and "condition" in stdout


def test_check_order_rk3_requires_order_3(capsys):
    code, _, _ = run(["check-order", "--scheme", "rk3paper",
                      "--require-order", "3"], capsys)
    assert code == 0


def test_check_order_rk2_fails_order_3(capsys):
    code, stdout, _ = run(["check-order", "--scheme", "rk2",
                           "--require-order", "3"], capsys)
    assert code == 1 and "fails" in stdout


def test_check_order_euler_requires_order_1(capsys):
    code, _, _ = run(["check-order", "--scheme", "euler",
                      "--require-order", "1"], capsys)
    assert code == 0


def test_check_order_own_claims_failure_names_row(capsys, monkeypatch):
    # euler's coefficients claiming stiff order two fail condition 2
    overclaimed = dataclasses.replace(exponential_euler(), claims=ORDER_CLAIMS[2])
    monkeypatch.setattr(convergence, "resolve_scheme", lambda name, c: overclaimed)
    code, stdout, _ = run(["check-order"], capsys)
    assert code == 1 and "condition 2 fails in weak form" in stdout


def test_check_order_takes_a_seed(capsys):
    code, stdout, _ = run(["check-order", "--scheme", "euler", "--seed", "3"], capsys)
    assert code == 0 and stdout != run(["check-order", "--scheme", "euler"], capsys)[1]


def test_check_order_unknown_scheme_exit_2(capsys):
    code, _, stderr = run(["check-order", "--scheme", "etd5"], capsys)
    assert code == 2 and "etd5" in stderr


# ----------------------------------------------------------------- probe

def test_probe_overflow_prints_only_its_error_line(capsys):
    """NumPy's overflow warnings stay off stderr; the error line alone reports the run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, stderr = run(["probe", "fourier", "--beta", "400", "--coeffs", "1/k"], capsys)
    assert code == 1 and stderr.startswith("error:") and stderr.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_probe_l2_past_square_overflow_exits_on_its_verdict(capsys):
    # l1 and linf of this case are finite, and so is its l2
    code, stdout, stderr = run(["probe", "fourier", "--beta", "20", "--coeffs", "1/k",
                                "--norm", "l2"], capsys)
    assert code == 1 and stderr == ""
    assert stdout == "fourier beta=20 norm=l2: max=8.31351e+181 verdict=unbounded\n"


def test_probe_smoothing_bounded(tmp_path, capsys):
    out = tmp_path / "smooth.csv"
    code, stdout, _ = run(["probe", "smoothing", "--gamma", "0.5",
                           "--n", "50", "--out", str(out)], capsys)
    assert code == 0 and "verdict=bounded" in stdout
    assert out.read_text().splitlines()[0] == "grid_value,quantity"


def test_probe_relbound_small_gamma_unbounded(capsys):
    code, stdout, _ = run(["probe", "relbound", "--gamma", "0.1", "--n", "200"],
                          capsys)
    assert code == 1 and "verdict=unbounded" in stdout


@pytest.mark.parametrize("n, sizes", [
    (399, (25, 50, 100, 200, 399)), (200, (25, 50, 100, 200)),
    (300, (25, 50, 100, 200, 300)), (30, (25, 30)), (10, (10,)),
])
def test_probe_relbound_runs_default_sizes_below_n_then_n(capsys, monkeypatch, n, sizes):
    seen = []

    def spy(gamma, n_list, nu):
        seen.append(tuple(n_list))
        return probes.ProbeReport(np.asarray(n_list, dtype=float), np.ones(len(n_list)),
                                  1.0, True, "spy")
    monkeypatch.setattr(probes, "relative_boundedness_probe", spy)
    assert run(["probe", "relbound", "--n", str(n)], capsys)[0] == 0
    assert seen == [sizes]


def test_probe_fourier_smooth_data(capsys):
    code, stdout, _ = run(["probe", "fourier", "--beta", "0.24",
                           "--coeffs", "u0", "--norm", "l2"], capsys)
    assert code == 0 and "verdict=bounded" in stdout


def test_probe_fourier_norm_choices_are_the_study_norms(capsys, monkeypatch):
    norms = []

    def spy(rule, beta, N_list, norm):
        norms.append(norm)
        return probes.ProbeReport(np.ones(1), np.ones(1), 1.0, True, "spy")
    monkeypatch.setattr(probes, "fourier_beta_probe", spy)
    for nm in convergence.NORMS:
        assert run(["probe", "fourier", "--norm", nm], capsys)[0] == 0
    assert norms == list(convergence.NORMS)
    with pytest.raises(SystemExit) as exc:
        main(["probe", "fourier", "--norm", "l3"])
    assert exc.value.code == 2 and "invalid choice: 'l3'" in capsys.readouterr().err


def test_probe_bad_gamma_exit_2(capsys):
    code, _, _ = run(["probe", "relbound", "--gamma", "1.5"], capsys)
    assert code == 2


def test_probe_smoothing_large_gamma_exit_0(capsys):
    code, stdout, _ = run(["probe", "smoothing", "--gamma", "100"], capsys)
    assert code == 0 and "max=3.72006e+156 verdict=bounded" in stdout


@pytest.mark.parametrize("argv, label", [
    (["relbound", "--gamma", "0.5", "--n", "3", "--nu", "1e-300"], "relbound gamma=0.5"),
    (["smoothing", "--gamma", "200"], "smoothing gamma=200"),
    (["fourier", "--beta", "400", "--coeffs", "1/k"], "fourier beta=400 norm=l2"),
], ids=["relbound", "smoothing", "fourier"])
def test_probe_non_finite_values_exit_1_without_a_verdict(capsys, argv, label):
    with np.errstate(all="ignore"):
        code, stdout, stderr = run(["probe", *argv], capsys)
    assert code == 1 and "verdict" not in stdout
    assert stderr.startswith(f"error: {label}: non-finite value at grid value ")


@pytest.mark.parametrize("kind, flag, value", [
    ("fourier", "--gamma", "0.5"), ("fourier", "--n", "5"), ("fourier", "--nu", "3"),
    ("smoothing", "--beta", "0.24"), ("smoothing", "--norm", "l2"),
    ("smoothing", "--coeffs", "1/k"), ("relbound", "--beta", "0.1"),
    ("relbound", "--norm", "linf"), ("relbound", "--coeffs", "u0"),
])
def test_probe_flag_of_another_kind_exit_2(capsys, kind, flag, value):
    # fourier --n 5 would read as --norm 5 if the kind parsers took abbreviations
    with pytest.raises(SystemExit) as exc:
        main(["probe", kind, flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    # reported by the kind's own parser, under the usage line that lists its flags
    assert captured.err.startswith(f"usage: exprk probe {kind} [-h]")
    assert f"exprk probe {kind}: error: unrecognized arguments: {flag} {value}" in captured.err


def test_probe_help_gives_each_kind_a_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for kind in ("smoothing", "relbound", "fourier"):
        assert re.search(rf"^ +{kind} +\S", out, re.MULTILINE), kind


def test_probe_flag_before_the_kind_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--gamma", "0.5", "smoothing"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("kind, flags", [
    ("smoothing", {"--gamma", "--n", "--nu", "--out"}),
    ("relbound", {"--gamma", "--n", "--nu", "--out"}),
    ("fourier", {"--beta", "--norm", "--coeffs", "--out"}),
])
def test_probe_kind_help_lists_exactly_its_own_flags(capsys, kind, flags):
    with pytest.raises(SystemExit) as exc:
        main(["probe", kind, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and set(re.findall(r"--[a-z]+", out)) == flags | {"--help"}
    for entry in re.split(r"\n(?=  -)", out.split("options:", 1)[1]):
        assert entry.count("default") <= 1, entry
    for entry in re.split(r"\n(?=  -)", out.split("options:", 1)[1]):
        assert entry.count("default") <= 1, entry


def test_cli_runs_import_neither_numpy_ma_nor_scipy(tmp_path):
    # numpy.ma would cost ~1.2 MB of a run's resident set, and scipy is no dependency
    script = (
        "import contextlib, io, sys\n"
        "from exprk.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['convergence', '--n', '25'], ['probe', 'smoothing'],\n"
        "                 ['probe', 'relbound'], ['probe', 'fourier'], ['check-order']):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma'\n"
        "             or m.startswith(('numpy.ma.', 'scipy'))))\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    betas = []

    def spy(rule, beta, N_list, norm):
        betas.append(beta)
        return probes.ProbeReport(np.ones(1), np.ones(1), 1.0, True, "spy")
    monkeypatch.setattr(probes, "fourier_beta_probe", spy)
    assert run(["probe", "fourier", "--beta", "0.3"], capsys)[0] == 0
    assert run(["probe", "fourier"], capsys)[0] == 0
    assert betas == [0.3, 0.24]


# ----------------------------------------------------------------- solve

def test_solve_prints_norms(capsys):
    code, stdout, _ = run(["solve", "--scheme", "rk2", "--n", "25",
                           "--tau", "0.0625"], capsys)
    assert code == 0
    assert "scheme=rk2(c=0.5) steps=16" in stdout and "l2=" in stdout


def test_solve_nondivisible_tau_exit_2(capsys):
    code, _, stderr = run(["solve", "--n", "25", "--tau", "0.3"], capsys)
    assert code == 2 and "divide" in stderr


# ------------------------------------------------------ shared settings

# Bad numbers that used to surface as a Python or numpy error (exit 1) or as a
# verdict on NaN values; each must be a usage error that names the setting.
@pytest.mark.parametrize("argv, fragment", [
    (["solve", "--tau", "0"], "tau=0 does not divide T=1"),
    (["solve", "--T", "inf"], "does not divide T=inf"),
    (["solve", "--tau", "nan"], "tau=nan does not divide T=1"),
    (["solve", "--nu", "nan"], "nu must be positive and finite"),
    # 4 nu/h^2 + 1/h overflows, though for 4e302 every band is finite
    (["probe", "relbound", "--nu", "1e307"], "nu must be positive and finite"),
    (["solve", "--nu", "1e307", "--n", "10"], "nu must be positive and finite"),
    (["probe", "smoothing", "--nu", "1e307"], "nu must be positive and finite"),
    (["convergence", "--nu", "4e302"], "nu must be positive and finite"),
    (["convergence", "--nu", "1e290"], "Gershgorin radius 6.4e+295 of B - A"),
    (["solve", "--scheme", "euler", "--c", "-5"], "node c must be in (0, 1], got -5.0"),
    (["check-order", "--scheme", "rk3paper", "--c", "2"], "node c must be in (0, 1], got 2.0"),
    (["convergence", "--tau-list", "0.5,0.25,0.125,0"], "tau=0 does not divide T=1"),
    (["convergence", "--T", "nan"], "does not divide T=nan"),
    (["probe", "smoothing", "--gamma", "nan"], "gamma must be"),
    (["probe", "fourier", "--beta", "nan"], "beta must be finite"),
    (["check-order", "--seed", "-1"], "--seed"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_number_exit_2_names_setting(capsys, argv, fragment):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and fragment in captured.err and captured.out == ""


def test_tau_ref_flag_is_gone(capsys):
    """The reference step is derived from the stencil; no flag sets it."""
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--tau-ref", "1e-5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.err.startswith("usage: exprk convergence [-h]")
    assert "exprk convergence: error: unrecognized arguments: --tau-ref 1e-5" in captured.err


SPEC_FLAGS = {"--scheme": ExperimentSpec.scheme, "--c": ExperimentSpec.c,
              "--n": ExperimentSpec.n_inner, "--nu": ExperimentSpec.nu, "--T": ExperimentSpec.T}


@pytest.mark.parametrize("argv, flags", [
    (["solve", "--tau", "0.25"], ("--scheme", "--c", "--n", "--nu", "--T")),
    (["probe", "smoothing"], ("--n", "--nu")),
    (["probe", "relbound", "--gamma", "1"], ("--n", "--nu")),
    (["check-order"], ("--scheme", "--c")),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_unset_settings_are_experiment_spec_defaults(capsys, argv, flags):
    """A run without testbed flags prints what the run with ExperimentSpec's values does."""
    spelled_out = argv + [arg for flag in flags for arg in (flag, str(SPEC_FLAGS[flag]))]
    plain = run(argv, capsys)
    assert plain[0] == 0 and plain == run(spelled_out, capsys)


# --------------------------------------------------------- custom tableau

RK3_FILE = """\
name = rk3-from-file
c = 0,0.5,1
a[2][1] = scale:0.5 phi:1 w:0.5
a[3][1] = scale:1 phi:1 w:1 + scale:0.5 phi:2 w:-2 + scale:1 phi:2 w:-2
a[3][2] = scale:0.5 phi:2 w:2 + scale:1 phi:2 w:2
b[1] = scale:1 phi:1 w:1 + scale:1 phi:2 w:-3 + scale:1 phi:3 w:4
b[2] = scale:1 phi:2 w:4 + scale:1 phi:3 w:-8
b[3] = scale:1 phi:2 w:-1 + scale:1 phi:3 w:4
"""


def test_parse_tableau_matches_builtin():
    parsed = parse_tableau(RK3_FILE)
    builtin = third_order()
    key_fn = lambda t: (t.scale, t.order, t.weight)
    assert parsed.c == builtin.c
    for key, combo in builtin.a.items():
        assert sorted(parsed.a[key].terms, key=key_fn) == \
            sorted(combo.terms, key=key_fn)
    for pb, bb in zip(parsed.b, builtin.b):
        assert sorted(pb.terms, key=key_fn) == sorted(bb.terms, key=key_fn)


def test_tableau_file_drives_cli(tmp_path, capsys):
    path = tmp_path / "scheme.tab"
    path.write_text(RK3_FILE)
    code, stdout, _ = run(["check-order", "--tableau", str(path),
                           "--require-order", "3"], capsys)
    assert code == 0 and "rk3-from-file" not in stdout  # table shows rows only

    out = tmp_path / "custom.csv"
    code, _, _ = run(["convergence", "--tableau", str(path),
                      "--out", str(out)] + FAST, capsys)
    assert code == 0 and "scheme=rk3-from-file" in out.read_text()


# RK3_FILE with E(Z) = phi_1(Z) - 2 phi_2(Z), zero at Z = 0, moved from a[3][1] to a[3][2]:
# conditions 1-4 hold strongly, condition 5 only at Z = 0, not in its weak-b-only form
WEAK5_MOVE = {"a[3][1]": " + scale:1 phi:1 w:-1 + scale:1 phi:2 w:2",
              "a[3][2]": " + scale:1 phi:1 w:1 + scale:1 phi:2 w:-2"}
WEAK5_FILE = "".join(line + WEAK5_MOVE.get(line[:7], "") + "\n"
                     for line in RK3_FILE.splitlines())


def test_check_order_fails_a_tableau_that_breaks_weak_condition_5(tmp_path, capsys):
    path = tmp_path / "weak5.tab"
    path.write_text(WEAK5_FILE)
    code, stdout, _ = run(["check-order", "--tableau", str(path), "--require-order", "3"],
                          capsys)
    assert code == 1
    assert stdout.endswith("condition 5 fails in weak-b-only form (residual 1.190e-02)\n")


def test_parse_tableau_reports_line_and_column():
    bad = "c = 0,0.5\na[2][1] = scale:0.5 phi:one w:1\n"
    with pytest.raises(LocatedError) as exc:
        parse_tableau(bad)
    assert exc.value.line_no == 2 and exc.value.column >= 1


def test_parse_tableau_missing_nodes():
    with pytest.raises(LocatedError):
        parse_tableau("b[1] = scale:1 phi:1 w:1\n")


@pytest.mark.parametrize("text, where", [
    ("c = 0,0.5\na[2][1] = scale:0.5 phi:one w:1\n", ":2:11: "),
    ("b[1] = scale:1 phi:1 w:1\n", ": missing node line"),
    ("c = 0\nd[1] = scale:1 phi:1 w:1\n", ":2: unknown target 'd[1]'"),
    # an index in other digits once parsed by int(); it is now an unknown target
    ("c = 0\nb[\u0661] = scale:1 phi:1 w:1\n", ":2: unknown target 'b[\u0661]'"),
], ids=["bad-term", "no-nodes", "unknown-target", "non-ascii-index"])
def test_tableau_file_error_names_the_file(tmp_path, capsys, text, where):
    path = tmp_path / "bad.tab"
    path.write_text(text)
    code, _, stderr = run(["check-order", "--tableau", str(path)], capsys)
    assert code == 2 and stderr.startswith(f"error: {path}{where}")


@pytest.mark.parametrize("spaces", [0, 1, 3])
def test_tableau_error_column_is_the_value_character(spaces):
    """Columns count from 1 in the line, whatever the spacing after '='."""
    eq = "=" + " " * spaces
    with pytest.raises(LocatedError) as exc:
        parse_tableau(f"c {eq}0,x\n")
    assert (exc.value.line_no, exc.value.column) == (1, 3 + spaces + 1)  # the '0'
    with pytest.raises(LocatedError) as exc:
        parse_tableau(f"c = 0\nb[1] {eq}scale:1 phi:1 w:1 + bad\n")
    assert (exc.value.line_no, exc.value.column) == (2, 6 + spaces + 21)  # the 'b' of bad


def test_tableau_phi_order_out_of_range_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.tab"
    path.write_text("c = 0\nb[1] = scale:1 phi:9 w:1\n")
    code, _, stderr = run(["check-order", "--tableau", str(path)], capsys)
    assert code == 2 and stderr.startswith(f"error: {path}: phi order 9 ")


@pytest.mark.parametrize("text, fragment", [
    ("c = 0,0.5\na[3][1] = scale:1 phi:1 w:1\n", "a[3][1]"),
    ("c = 0\nb[1] = scale:2 phi:1 w:1\n", "scale 2"),
    # c = 0,nan once failed at step 1 in solve and printed nan residuals, exit 0, in
    # check-order; c = 0,-3 ran phi_0(3 tau A) silently
    ("c = 0,nan\nb[1] = scale:1 phi:1 w:1\n", "node nan outside [0, 1]"),
    ("c = 0,-3\nb[1] = scale:1 phi:1 w:1\n", "node -3.0 outside [0, 1]"),
    ("c = 0\nb[2] = scale:1 phi:1 w:1\n", "b[2] outside stage range 1..1"),
], ids=["stage-out-of-range", "scale-out-of-range", "node-nan", "node-negative",
        "b-out-of-range"])
def test_structurally_bad_tableau_exit_2(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.tab"
    path.write_text(text)
    with pytest.raises(LocatedError, match=re.escape(fragment)):
        parse_tableau(text)
    for command in (["check-order"], ["solve", "--n", "25", "--tau", "0.25"]):
        code, _, stderr = run([*command, "--tableau", str(path)], capsys)
        assert code == 2 and stderr.startswith(f"error: {path}: ") and fragment in stderr


def test_missing_tableau_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "no.tab"
    code, _, stderr = run(["solve", "--tableau", str(missing), "--n", "25",
                           "--tau", "0.25"], capsys)
    assert code == 2 and str(missing) in stderr


@pytest.mark.parametrize("text, first, again", [
    ("c = 0,0.5\na[2][1] = scale:0.5 phi:1 w:0.5\nb[1] = scale:1 phi:1 w:1\n"
     "a[2][1] = scale:0.5 phi:1 w:0.25\n", 2, 4),
    ("c = 0,0.5\na[2][1] = scale:0.5 phi:1 w:0.5\na[02][01] = scale:0.5 phi:1 w:0.5\n", 2, 3),
    ("c = 0\nb[1] = scale:1 phi:1 w:1\n\n# again\nb[1] = scale:1 phi:1 w:0.5\n", 2, 5),
    ("name = one\nc = 0\nname = two\nb[1] = scale:1 phi:1 w:1\n", 1, 3),
    ("c = 0\nc = 0,0.5\nb[1] = scale:1 phi:1 w:1\n", 1, 2),
], ids=["a", "a-leading-zeros", "b", "name", "c"])
def test_tableau_target_set_twice_exit_2(tmp_path, capsys, text, first, again):
    """A repeated target was last-wins: the file passed check-order and exited 0."""
    with pytest.raises(LocatedError, match=f"repeats the target of line {first}$") as exc:
        parse_tableau(text)
    assert exc.value.line_no == again
    path = tmp_path / "twice.tab"
    path.write_text(text)
    for command in (["check-order"], ["solve", "--n", "25", "--tau", "0.25"]):
        code, stdout, stderr = run([*command, "--tableau", str(path)], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: {path}:{again}: ") and f"of line {first}\n" in stderr


# ---------------------------------------------------------------- config

def test_parse_config_text_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nscheme = rk2  # trailing\nn=25\n")
    assert read_config(path) == {"scheme": "rk2", "n": 25}


def test_parse_config_text_rejects_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 10\njust words\n")
    with pytest.raises(LocatedError, match=re.escape(f"{path}:2")):
        read_config(path)


@pytest.mark.parametrize("kind", ["config", "tableau"])
def test_config_and_tableau_files_share_one_grammar(tmp_path, capsys, kind):
    """Both readers skip a blank line and a trailing comment, and a line
    without '=' exits 2 naming file:line."""
    path = tmp_path / f"input.{kind}"
    if kind == "config":
        named = tmp_path / "named.csv"
        text = f"# a comment\n\nout = {named}  # trailing\nscheme = euler\n"
        argv, want = ["convergence"] + FAST + ["--config", str(path)], f"wrote {named}\n"
    else:
        text = "# a comment\n\nname = mine  # trailing\nc = 0\nb[1] = scale:1 phi:1 w:1\n"
        argv, want = ["solve", "--n", "25", "--tau", "0.25", "--tableau", str(path)], "scheme=mine "
    path.write_text(text)
    code, stdout, _ = run(argv, capsys)
    assert code == 0 and want in stdout
    path.write_text(text + "just words\n")
    code, _, stderr = run(argv, capsys)
    assert code == 2 and f"{path}:{text.count(chr(10)) + 1}: " in stderr


# One value per config key, each different from what the FAST run uses.
KEY_VALUES = {
    "scheme": "euler", "c": "0.75", "n": "20", "nu": "0.1", "T": "0.5",
    "tau_list": "0.25,0.125,0.0625,0.03125", "out": "other.csv", "tableau": "scheme.tab",
}


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
def test_config_key_equals_its_flag(tmp_path, capsys, monkeypatch, key):
    """Setting a key in a --config file writes the bytes its flag writes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scheme.tab").write_text(RK3_FILE)
    base = {"scheme": "rk2", "n": "25", "tau_list": "0.125,0.0625,0.03125,0.015625",
            "out": "study.csv"}
    value, flag = KEY_VALUES[key], "--" + key.replace("_", "-")
    out = tmp_path / (value if key == "out" else base["out"])
    flags = [arg for k, v in base.items() if k != key
             for arg in ("--" + k.replace("_", "-"), v)]

    def study(argv):
        out.unlink(missing_ok=True)
        code, stdout, _ = run(["convergence"] + argv + flags, capsys)
        assert code == 0
        return out.read_bytes(), stdout

    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
    via_file = study(["--config", "run.cfg"])
    via_flag = study([flag, value])
    assert via_file == via_flag
    if key != "out":  # the value must change the study, or the test shows nothing
        assert study([flag, base[key]] if key in base else []) != via_flag


def test_config_file_paths_are_read_from_its_directory(tmp_path, capsys, monkeypatch):
    """tableau and out set in sub/run.cfg name files beside it, run from the parent
    directory; a path given as a flag still names one in the working directory."""
    monkeypatch.chdir(tmp_path)
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "mine.tab").write_text(RK3_FILE)
    (sub / "run.cfg").write_text("tableau = mine.tab\nout = study.csv\n")
    code, stdout, _ = run(["convergence", "--config", "sub/run.cfg"] + FAST, capsys)
    assert code == 0 and "wrote sub/study.csv" in stdout
    assert "scheme=rk3-from-file" in (sub / "study.csv").read_text()
    code, _, _ = run(["convergence", "--config", "sub/run.cfg", "--out", "here.csv"] + FAST, capsys)
    assert code == 0 and (tmp_path / "here.csv").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["here.csv", "sub"]


def test_config_file_value_is_cast(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 25\nc = 0.75\nscheme = rk2\n"
                   "tau_list = 0.125, 0.0625, 0.03125, 0.015625\n"
                   f"out = {tmp_path / 'c.csv'}\n")
    code, _, _ = run(["convergence", "--config", str(cfg)], capsys)
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    assert "scheme=rk2(c=0.75) n=25" in text and len(parse_csv(text)) == 4


def test_footer_and_labels_record_settings_in_round_trip_form(tmp_path, capsys):
    # each setting parses back to the float the run used, where %g would keep six digits
    out = tmp_path / "study.csv"
    code, _, _ = run(["convergence", "--scheme", "rk2", "--c", "0.3333333", "--nu", "0.1234567",
                      "--T", "0.30000000000000004", "--n", "25",
                      "--tau-list", "0.1,0.05,0.025,0.0125", "--out", str(out)], capsys)
    assert code == 0
    footer = dict(kv.split("=", 1) for kv in out.read_text().splitlines()[-1][2:].split())
    assert footer["scheme"] == "rk2(c=0.3333333)"
    assert float(footer["nu"]) == 0.1234567 and float(footer["T"]) == 0.30000000000000004
    code, stdout, _ = run(["probe", "smoothing", "--gamma", "0.123456789", "--n", "25"], capsys)
    assert code == 0 and stdout.startswith("smoothing gamma=0.123456789:")
    code, stdout, _ = run(["solve", "--tau", "0.0009765625"], capsys)
    assert code == 0 and "steps=1024 tau=0.0009765625\n" in stdout
    code, _, stderr = run(["solve", "--tau", "0.3333333"], capsys)
    assert code == 2 and "tau=0.3333333 does not divide T=1 " in stderr


@pytest.mark.parametrize("line, key", [("nu = two", "nu"), ("norms = l2", "norms"),
                                       ("tau_ref = 1e-5", "tau_ref"),
                                       ("n" + "1" * 5000 + " = 3", "n" + "1" * 5000)],
                         ids=["bad-value", "removed-key", "removed-tau-ref", "long-key"])
def test_config_bad_line_exit_2_names_key_and_file(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 25\n{line}\n")
    code, _, stderr = run(["convergence", "--config", str(cfg)], capsys)
    assert code == 2 and repr(key) in stderr and f"{cfg}:2" in stderr


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
def test_config_key_set_twice_exit_2(tmp_path, capsys, monkeypatch, key):
    """A repeated key was last-wins: n = 50 then n = 60 ran at n = 60 with no warning."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scheme.tab").write_text(RK3_FILE)
    cfg = tmp_path / "run.cfg"
    value = KEY_VALUES[key]
    cfg.write_text(f"{key} = {value}\nscheme = euler\n# again\n{key} = {value}\n"
                   if key != "scheme" else f"scheme = rk2\nn = 25\n# again\nscheme = euler\n")
    with pytest.raises(LocatedError, match=f"^{re.escape(str(cfg))}:4: {key!r} repeats "
                       "the target of line 1$"):
        read_config(cfg)
    code, stdout, stderr = run(["convergence"] + FAST + ["--config", str(cfg)], capsys)
    assert code == 2 and stdout == "" and stderr.startswith(f"error: {cfg}:4: ")
    assert not any(tmp_path.glob("*.csv"))


# Parameters whose value the CLI or ExperimentSpec owns: the library takes it explicitly.
SETTING_PARAMETERS = [(probes.fourier_beta_probe, "norm"),
                      (orderconditions.full_report, "z_seed"),
                      (stepping.default_reference_step, "T"),
                      (tableaus.second_order, "c"), (tableaus.resolve_scheme, "c")]


@pytest.mark.parametrize("function, name", SETTING_PARAMETERS,
                         ids=[f"{f.__name__}-{p}" for f, p in SETTING_PARAMETERS])
def test_library_takes_the_cli_settings_without_defaults(function, name):
    parameter = inspect.signature(function).parameters[name]
    assert parameter.default is inspect.Parameter.empty
