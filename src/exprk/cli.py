"""Command-line front end.

Subcommands: convergence (testbed order study), check-order (stiff order
conditions), probe (smoothing / relative boundedness / Fourier sums),
solve (single run, prints final-state norms).

Exit codes: 0 success, 1 runtime or verdict failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import convergence, discretize, orderconditions, probes, stepping
from .config import RunConfig, parse_config_file
from .errors import ParameterError
from .tableau_io import load_tableau
from .tableaus import resolve_scheme

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exprk",
        description="Exponential Runge-Kutta methods for stiff linear "
                    "advection-diffusion problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scheme_flags(p):
        p.add_argument("--scheme", default=None,
                       help=f"euler | rk2 | rk3paper (default {RunConfig.scheme})")
        p.add_argument("--c", type=float, default=None,
                       help=f"free node of the rk2 family (default {RunConfig.c:g})")
        p.add_argument("--tableau", default=None,
                       help="path to a custom tableau file (overrides --scheme)")

    p = sub.add_parser("convergence", help="run a tau-grid convergence study",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--config", default=None, help="key=value configuration file")
    scheme_flags(p)
    p.add_argument("--n", type=int, default=None,
                   help=f"inner grid points (default {RunConfig.n})")
    p.add_argument("--nu", type=float, default=None,
                   help=f"diffusion coefficient (default {RunConfig.nu:g})")
    p.add_argument("--T", type=float, default=None,
                   help=f"final time (default {RunConfig.T:g})")
    p.add_argument("--tau-list", dest="tau_list", default=None,
                   help="comma-separated decreasing step sizes (default 2^-4..2^-10)")
    p.add_argument("--tau-ref", dest="tau_ref", type=float, default=None,
                   help="reference RK4 step (default: stability-derived)")
    p.add_argument("--out", default=None,
                   help=f"output CSV path (default {RunConfig.out})")

    p = sub.add_parser("check-order", help="evaluate the stiff order conditions",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    scheme_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the random test matrix")
    p.add_argument("--require-order", type=int, default=None,
                   choices=tuple(orderconditions.ORDER_CLAIMS),
                   help="fail unless the scheme passes all conditions of this order")

    p = sub.add_parser("probe", help="numerical probes of the analytical bounds",
                       description="The verdict 'bounded' (exit 0, else 1) is a stagnation "
                       f"rule over the sampled grid: the last value is at most "
                       f"{probes.TREND_FACTOR:g}x "
                       "the median of the earlier ones. It is not a proof; the "
                       "fourier case --beta 0.49 --norm linf --coeffs 1/k reads "
                       "unbounded although its series is absolutely summable.",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("kind", choices=("smoothing", "relbound", "fourier"))
    p.add_argument("--gamma", type=float, default=0.5, help="fractional exponent")
    p.add_argument("--beta", type=float, default=0.24, help="Fourier probe exponent")
    p.add_argument("--norm", default="l2", choices=("l1", "l2", "linf"),
                   help="norm for the Fourier probe")
    p.add_argument("--coeffs", default="u0", choices=("u0", "1/k"),
                   help="Fourier coefficient rule: initial-data sine series or 1/k")
    p.add_argument("--n", type=int, default=RunConfig.n, help="testbed grid size")
    p.add_argument("--nu", type=float, default=RunConfig.nu, help="diffusion coefficient")
    p.add_argument("--out", default=None, help="optional CSV output path")

    p = sub.add_parser("solve", help="single run; prints final-state norms",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    scheme_flags(p)
    p.add_argument("--n", type=int, default=RunConfig.n, help="inner grid points")
    p.add_argument("--nu", type=float, default=RunConfig.nu, help="diffusion coefficient")
    p.add_argument("--T", type=float, default=RunConfig.T, help="final time")
    p.add_argument("--tau", type=float, default=2.0 ** -6, help="step size")
    return parser


def _resolve_tableau(args):
    if getattr(args, "tableau", None):
        return load_tableau(args.tableau)
    return resolve_scheme(args.scheme or RunConfig.scheme,
                          args.c if args.c is not None else RunConfig.c)


def cmd_convergence(args) -> int:
    cfg = RunConfig()
    if args.config is not None:
        cfg.apply(parse_config_file(args.config))
    cfg.apply({k: getattr(args, k) for k in
               ("scheme", "c", "n", "nu", "T", "tau_list", "tau_ref",
                "out", "tableau")})
    tableau = load_tableau(cfg.tableau) if cfg.tableau else None
    spec = convergence.ExperimentSpec(
        n_inner=cfg.n, nu=cfg.nu, T=cfg.T, scheme=cfg.scheme, c=cfg.c,
        tableau=tableau, tau_list=cfg.tau_list, tau_ref=cfg.tau_ref,
        norms=cfg.norms)
    report = convergence.run_experiment(spec)
    convergence.emit_csv(report, cfg.out)
    for nm in report.norms:
        print(f"fitted_order_{nm}={report.fitted_order[nm]:.6g}")
    print(f"wrote {cfg.out}")
    return EXIT_OK


def cmd_check_order(args) -> int:
    tableau = _resolve_tableau(args)
    report = orderconditions.full_report(tableau, z_seed=args.seed)
    sys.stdout.write(report.to_table())
    if args.require_order is not None:
        row = orderconditions.first_failure(
            orderconditions.ORDER_CLAIMS[args.require_order], report)
        if row is not None:
            print(f"condition {row.condition} fails in {row.mode} form "
                  f"(residual {row.residual:.3e})")
            return EXIT_RUNTIME
        return EXIT_OK
    ok = orderconditions.claims_satisfied(tableau, report)
    if not ok:
        print(f"scheme {tableau.name} violates its claimed order conditions")
    return EXIT_OK if ok else EXIT_RUNTIME


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "convergence": cmd_convergence,
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
