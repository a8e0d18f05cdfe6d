"""Command-line front end.

Subcommands: convergence (testbed order study), check-order (stiff order
conditions), probe (smoothing / relative boundedness / Fourier sums),
solve (single run, prints final-state norms).

Exit codes: 0 success, 1 runtime or verdict failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from math import log2

from . import convergence, discretize, orderconditions, probes, stepping
from .convergence import ExperimentSpec
from .errors import ParameterError
from .tableau_io import load_tableau
from .tableaus import resolve_scheme

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
DEFAULT_OUT = "convergence.csv"


def float_tuple(text: str):
    """Comma-separated floats, e.g. '0.25,0.125'."""
    return tuple(float(v) for v in text.split(","))


def parse_config_text(text: str, casts, source: str = "<config>") -> dict:
    """{key: casts[key](value)} of the `key = value` lines; `#` starts a comment.

    A malformed line, an unknown key or a bad value raises ParameterError
    naming source:line.
    """
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{line_no}"
        if "=" not in line:
            raise ParameterError(f"{where}: expected 'key=value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in casts:
            raise ParameterError(f"{where}: unknown key {key!r}")
        try:
            values[key] = casts[key](value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{where}: bad value for {key!r}: {exc}") from exc
    return values


def parse_config_file(path, casts) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, casts, source=str(path))


def _build_parser():
    """The parser, and the convergence settings {config key: flag action}."""
    parser = argparse.ArgumentParser(
        prog="exprk",
        description="Exponential Runge-Kutta methods for stiff linear "
                    "advection-diffusion problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scheme_flags(p):
        return [
            p.add_argument("--scheme",
                           help=f"euler | rk2 | rk3paper (default: {ExperimentSpec.scheme})"),
            p.add_argument("--c", type=float,
                           help=f"free node of the rk2 family (default: {ExperimentSpec.c:g})"),
            p.add_argument("--tableau", help="path to a custom tableau file (overrides --scheme)"),
        ]

    p = sub.add_parser("convergence", help="run a tau-grid convergence study",
                       description="Each setting is its flag if given, else its value in "
                       "the --config file, else the default below.")
    p.add_argument("--config", help="key = value file; the keys are the flag names below, "
                   "with tau_list and tau_ref for --tau-list and --tau-ref")
    taus = ExperimentSpec.tau_list
    settings = scheme_flags(p) + [
        p.add_argument("--n", type=int,
                       help=f"inner grid points (default: {ExperimentSpec.n_inner})"),
        p.add_argument("--nu", type=float,
                       help=f"diffusion coefficient (default: {ExperimentSpec.nu:g})"),
        p.add_argument("--T", type=float, help=f"final time (default: {ExperimentSpec.T:g})"),
        p.add_argument("--tau-list", type=float_tuple,
                       help="comma-separated decreasing step sizes (default: "
                       f"2^{log2(taus[0]):g}..2^{log2(taus[-1]):g})"),
        p.add_argument("--tau-ref", type=float,
                       help="reference RK4 step (default: stability-derived)"),
        p.add_argument("--out", help=f"output CSV path (default: {DEFAULT_OUT})"),
    ]

    p = sub.add_parser("check-order", help="evaluate the stiff order conditions")
    scheme_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random test matrix (default: %(default)s)")
    p.add_argument("--require-order", type=int, choices=tuple(orderconditions.ORDER_CLAIMS),
                   help="fail unless the scheme passes all conditions of this order "
                   "(default: the scheme's own claims)")

    p = sub.add_parser("probe", help="numerical probes of the analytical bounds",
                       description="The verdict 'bounded' (exit 0, else 1) is a stagnation "
                       f"rule over the sampled grid: the last value is at most "
                       f"{probes.TREND_FACTOR:g}x "
                       "the median of the earlier ones. It is not a proof; the "
                       "fourier case --beta 0.49 --norm linf --coeffs 1/k reads "
                       "unbounded although its series is absolutely summable.")
    p.add_argument("kind", choices=("smoothing", "relbound", "fourier"))
    p.add_argument("--gamma", type=float, default=0.5,
                   help="fractional exponent (default: %(default)s)")
    p.add_argument("--beta", type=float, default=0.24,
                   help="Fourier probe exponent (default: %(default)s)")
    p.add_argument("--norm", default="l2", choices=("l1", "l2", "linf"),
                   help="norm for the Fourier probe (default: %(default)s)")
    p.add_argument("--coeffs", default="u0", choices=("u0", "1/k"),
                   help="Fourier coefficient rule: initial-data sine series or 1/k "
                   "(default: %(default)s)")
    p.add_argument("--n", type=int, default=ExperimentSpec.n_inner,
                   help="testbed grid size (default: %(default)s)")
    p.add_argument("--nu", type=float, default=ExperimentSpec.nu,
                   help="diffusion coefficient (default: %(default)s)")
    p.add_argument("--out", help="optional CSV output path")

    p = sub.add_parser("solve", help="single run; prints final-state norms")
    scheme_flags(p)
    p.add_argument("--n", type=int, default=ExperimentSpec.n_inner,
                   help="inner grid points (default: %(default)s)")
    p.add_argument("--nu", type=float, default=ExperimentSpec.nu,
                   help="diffusion coefficient (default: %(default)s)")
    p.add_argument("--T", type=float, default=ExperimentSpec.T,
                   help="final time (default: %(default)s)")
    p.add_argument("--tau", type=float, default=2.0 ** -6, help="step size (default: %(default)s)")
    return parser, {action.dest: action for action in settings}


def _resolve_tableau(args):
    if args.tableau:
        return load_tableau(args.tableau)
    return resolve_scheme(args.scheme or ExperimentSpec.scheme,
                          ExperimentSpec.c if args.c is None else args.c)


def cmd_convergence(args, settings) -> int:
    """A setting is its flag, else its --config value, else ExperimentSpec's or DEFAULT_OUT."""
    values = {}
    if args.config is not None:
        values = parse_config_file(args.config, {key: action.type or str
                                                 for key, action in settings.items()})
    values.update((k, v) for k, v in vars(args).items() if k in settings and v is not None)
    out = values.pop("out", DEFAULT_OUT)
    if "tableau" in values:
        values["tableau"] = load_tableau(values["tableau"])
    if "n" in values:
        values["n_inner"] = values.pop("n")
    report = convergence.run_experiment(ExperimentSpec(**values))
    convergence.emit_csv(report, out)
    for nm in convergence.NORMS:
        print(f"fitted_order_{nm}={report.fitted_order[nm]:.6g}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check_order(args) -> int:
    tableau = _resolve_tableau(args)
    report = orderconditions.full_report(tableau, z_seed=args.seed)
    sys.stdout.write(report.to_table())
    claims = (tableau.claims if args.require_order is None
              else orderconditions.ORDER_CLAIMS[args.require_order])
    row = orderconditions.first_failure(claims, report)
    if row is None:
        return EXIT_OK
    print(f"condition {row.condition} fails in {row.mode} form "
          f"(residual {row.residual:.3e})")
    return EXIT_RUNTIME


def cmd_probe(args) -> int:
    if args.kind == "smoothing":
        g = discretize.build_grid(args.n)
        ops = discretize.build_operators(g, args.nu)
        report = probes.smoothing_probe(ops, args.gamma, probes.DEFAULT_SMOOTHING_TIMES)
    elif args.kind == "relbound":
        sizes = tuple(n for n in probes.DEFAULT_RELBOUND_SIZES if n <= args.n) or (args.n,)
        report = probes.relative_boundedness_probe(args.gamma, sizes, args.nu)
    else:
        rule = (probes.sine_coefficients_initial_data if args.coeffs == "u0"
                else probes.worst_case_coefficients)
        report = probes.fourier_beta_probe(rule, args.beta,
                                           probes.DEFAULT_FOURIER_LENGTHS, args.norm)
    verdict = "bounded" if report.bounded else "unbounded"
    print(f"{report.label}: max={report.max_value:.6g} verdict={verdict}")
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK if report.bounded else EXIT_RUNTIME


def cmd_solve(args) -> int:
    grid = discretize.build_grid(args.n)
    ops = discretize.build_operators(grid, args.nu)
    u0 = discretize.initial_data(grid)
    tableau = _resolve_tableau(args)
    result = stepping.solve(tableau, ops, u0, args.T, args.tau)
    norms = discretize.discrete_norms(grid, result.final)
    print(f"scheme={tableau.name} steps={result.steps} tau={result.tau:g}")
    print(f"l1={norms.l1:.12g} l2={norms.l2:.12g} linf={norms.linf:.12g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser, settings = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "convergence": lambda a: cmd_convergence(a, settings),
        "check-order": cmd_check_order,
        "probe": cmd_probe,
        "solve": cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
