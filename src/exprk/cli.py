"""Command-line front end.

Subcommands: convergence (testbed order study), check-order (stiff order
conditions), probe smoothing | relbound | fourier (each kind takes only its own
flags), solve (single run, prints final-state norms). One parser per process.

Exit codes: 0 success, 1 runtime or verdict failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from math import log2

import numpy as np

from . import convergence, discretize, orderconditions, probes, stepping
from .convergence import ExperimentSpec
from .errors import ParameterError
from .tableau_io import LocatedError, assignments, load_tableau, read_text
from .tableaus import BUILTIN_SCHEMES, ORDER_CLAIMS, float_text

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
DEFAULT_OUT = "convergence.csv"


def float_tuple(text: str):
    """Comma-separated floats, e.g. '0.25,0.125'."""
    return tuple(float(v) for v in text.split(","))


def natural(text: str) -> int:
    """A non-negative integer, e.g. a seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# The settings the subcommands share, {dest: (type, help)}; the flag is the dest with
# '_' as '-', the --config key the dest. Each help states ExperimentSpec's default.
SETTINGS = {
    "scheme": (str, f"{' | '.join(BUILTIN_SCHEMES)} (default: {ExperimentSpec.scheme})"),
    "c": (float, f"free node of the rk2 family (default: {ExperimentSpec.c:g})"),
    "tableau": (str, "path to a custom tableau file (overrides --scheme)"),
    "n": (int, f"inner grid points (default: {ExperimentSpec.n_inner})"),
    "nu": (float, f"diffusion coefficient (default: {ExperimentSpec.nu:g})"),
    "T": (float, f"final time (default: {ExperimentSpec.T:g})"),
    "tau_list": (float_tuple, "comma-separated decreasing step sizes (default: 2^"
                 f"{log2(ExperimentSpec.tau_list[0]):g}..2^"
                 f"{log2(ExperimentSpec.tau_list[-1]):g})"),
    "out": (str, f"output CSV path (default: {DEFAULT_OUT})"),
}

# The Fourier probe's --coeffs choices and the rule each names.
COEFFS = {"u0": probes.sine_coefficients_initial_data, "1/k": probes.worst_case_coefficients}


def _add_settings(p, keys, **helps):
    for key in keys:
        kind, text = SETTINGS[key]
        p.add_argument("--" + key.replace("_", "-"), type=kind, help=helps.get(key, text))


@functools.cache  # parse_args never changes the parser, so one serves every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="exprk",
        description="Exponential Runge-Kutta methods for stiff linear "
                    "advection-diffusion problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="run a tau-grid convergence study",
                       description="Each setting is its flag if given, else its value in "
                       "the --config file, else the default below.")
    p.set_defaults(handler=cmd_convergence, parser=p)
    p.add_argument("--config", help="key = value file; keys are the flag names below, '_' for '-'")
    _add_settings(p, SETTINGS)

    p = sub.add_parser("check-order", help="evaluate the stiff order conditions")
    p.set_defaults(handler=cmd_check_order, parser=p)
    _add_settings(p, ("scheme", "c", "tableau"))
    p.add_argument("--seed", type=natural, default=0,
                   help="seed for the random test matrix (default: %(default)s)")
    p.add_argument("--require-order", type=int, choices=tuple(ORDER_CLAIMS),
                   help="fail unless the scheme passes all conditions of this order "
                   "(default: the scheme's own claims)")

    p = sub.add_parser("probe", help="numerical probes of the analytical bounds",
                       description="The verdict 'bounded' (exit 0, else 1) is a stagnation "
                       "rule over the sampled grid: the last value is at most "
                       f"{probes.TREND_FACTOR:g}x the median of the earlier ones. It is not a "
                       "proof; the fourier case --beta 0.49 --norm linf --coeffs 1/k reads "
                       "unbounded although its series is absolutely summable. The kind comes "
                       "first; 'exprk probe KIND --help' lists its flags.")
    p.set_defaults(handler=cmd_probe)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, text in (("smoothing", "sup over t of ||t^g A^g e^{-tA}||_2 at one grid size"),
                       ("relbound", "max(||B A^-g||_2, ||A^-g B||_2) across grid sizes")):
        k = kinds.add_parser(kind, allow_abbrev=False, help=text)
        k.set_defaults(parser=k)
        k.add_argument("--gamma", type=float, default=0.5,
                       help="fractional exponent (default: %(default)s)")
        _add_settings(k, ("n", "nu", "out"), out="optional CSV output path")
    k = kinds.add_parser("fourier", allow_abbrev=False, help="partial sums of A^-1 B A^beta f")
    k.set_defaults(parser=k)
    k.add_argument("--beta", type=float, default=0.24,
                   help="Fourier probe exponent (default: %(default)s)")
    k.add_argument("--norm", choices=convergence.NORMS, default="l2",
                   help="norm for the Fourier probe (default: %(default)s)")
    k.add_argument("--coeffs", choices=COEFFS, default="u0", help="Fourier coefficient rule: "
                   "initial-data sine series or 1/k (default: %(default)s)")
    _add_settings(k, ("out",), out="optional CSV output path")

    p = sub.add_parser("solve", help="single run; prints final-state norms")
    p.set_defaults(handler=cmd_solve, parser=p)
    _add_settings(p, ("scheme", "c", "tableau", "n", "nu", "T"))
    p.add_argument("--tau", type=float, default=2.0 ** -6, help="step size (default: %(default)s)")
    return parser


def read_config(path) -> dict:
    """{key: its flag's type(value)} of a --config file; a bad line names path:line."""
    values = {}
    for line_no, _, key, value in assignments(read_text(path, "config"), path):
        if key not in SETTINGS:
            raise LocatedError(path, line_no, None, f"unknown key {key!r}")
        try:
            values[key] = SETTINGS[key][0](value)
        except (TypeError, ValueError) as exc:
            raise LocatedError(path, line_no, None, f"bad value for {key!r}: {exc}") from exc
    return values


def resolve_spec(args) -> ExperimentSpec:
    """ExperimentSpec of a subcommand's settings, each its flag if given, else its --config file
    value (paths from the file's directory), else the default; args.out is the resolved --out."""
    values = {}
    if getattr(args, "config", None) is not None:
        values = read_config(args.config)
        here = os.path.dirname(args.config)
        values.update((k, os.path.join(here, values[k])) for k in ("tableau", "out") if k in values)
    values.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    args.out = values.pop("out", None)
    if "tableau" in values:
        values["tableau"] = load_tableau(values["tableau"])
    return ExperimentSpec(**{"n_inner" if k == "n" else k: v for k, v in values.items()})


def cmd_convergence(args, spec) -> int:
    out = args.out or DEFAULT_OUT
    report = convergence.run_experiment(spec)
    convergence.write_csv(convergence.render_csv(report), out)
    for nm in convergence.NORMS:
        print(f"fitted_order_{nm}={report.fitted_order[nm]:.6g}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check_order(args, spec) -> int:
    tableau = spec.resolve_tableau()
    report = orderconditions.full_report(tableau, z_seed=args.seed)
    sys.stdout.write(report.to_table())
    claims = tableau.claims if args.require_order is None else ORDER_CLAIMS[args.require_order]
    row = orderconditions.first_failure(claims, report)
    if row is None:
        return EXIT_OK
    print(f"condition {row.condition} fails in {row.mode} form "
          f"(residual {row.residual:.3e})")
    return EXIT_RUNTIME


def cmd_probe(args, spec) -> int:
    if args.kind == "smoothing":
        ops = discretize.build_operators(discretize.build_grid(spec.n_inner), spec.nu)
        report = probes.smoothing_probe(ops, args.gamma, probes.DEFAULT_SMOOTHING_TIMES)
    elif args.kind == "relbound":
        sizes = (*(n for n in probes.DEFAULT_RELBOUND_SIZES if n < spec.n_inner), spec.n_inner)
        report = probes.relative_boundedness_probe(args.gamma, sizes, spec.nu)
    else:
        report = probes.fourier_beta_probe(COEFFS[args.coeffs], args.beta,
                                           probes.DEFAULT_FOURIER_LENGTHS, args.norm)
    verdict = "bounded" if report.bounded else "unbounded"
    print(f"{report.label}: max={report.max_value:.6g} verdict={verdict}")
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK if report.bounded else EXIT_RUNTIME


def cmd_solve(args, spec) -> int:
    grid = discretize.build_grid(spec.n_inner)
    ops = discretize.build_operators(grid, spec.nu)
    u0 = discretize.initial_data(grid)
    tableau = spec.resolve_tableau()
    result = stepping.solve(tableau, ops, u0, spec.T, args.tau)
    norms = discretize.discrete_norms(grid, result.final)
    print(f"scheme={tableau.name} steps={result.steps} tau={float_text(result.tau)}")
    print(" ".join(f"{nm}={getattr(norms, nm):.12g}" for nm in convergence.NORMS))
    return EXIT_OK


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # reported by the chosen (sub)command's parser, under its own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:  # overflow in a run is reported by its error line alone, with no NumPy warnings
        with np.errstate(all="ignore"):
            return args.handler(args, resolve_spec(args))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ParameterError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
