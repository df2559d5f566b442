"""Command-line interface.

Subcommands:

  identity    run the calculus identity suite
  embedding   run the embedding-direction sweep
  threshold   run the mode-growth threshold sweep
  regions     print index values and embedding verdicts for one (p,q,s,n)
  opnorm      estimate a Sobolev-to-Lp operator norm for a stored symbol
  gen         generate a named symbol and write it as a PSS file
  classify    print seminorm and Sjostrand-norm diagnostics for a symbol

Experiment subcommands read an optional strict-JSON config (a key it
leaves out takes the experiment's default), honor --seed (replaces the
config's seed list), run their tasks in order, and write CSV to --out
or stdout.  Exit status is 0 only when no task errored.  opnorm picks
its estimator from p and the symbol and prints the method it used.
Every printed row goes through experiments.csv_row, the CSV format.
"""

import argparse
import sys
from dataclasses import replace
from functools import cache

from ._rng import is_seed
from .analysis import sjostrand_norm
from .errors import InvalidValue, ModopError
from .experiments import (
    SweepConfig,
    csv_row,
    emit_csv,
    has_errors,
    load_config,
    run_embedding_sweep,
    run_identity_suite,
    run_threshold_sweep,
)
from .exponents import from_p
from .grid import UniformGrid
from .opnorm import sobolev_opnorm
from .quantize import read_pss, write_pss
from .regions import (
    embeds_amalgam_into_sobolev,
    embeds_sobolev_into_amalgam,
    region,
    region_star,
    sharp_threshold,
    tau1,
    tau2,
)
from .symbols import (
    bessel_symbol,
    constant_symbol,
    gaussian_bump_symbol,
    multiplication_profile,
    multiplication_symbol,
    random_phase_multiplier,
    s_seminorms,
    translation_symbol,
)

_RUNNERS = {
    "identity": run_identity_suite,
    "embedding": run_embedding_sweep,
    "threshold": run_threshold_sweep,
}


# gen --kind's choices, each a builder of its symbol from the grid and the options
_KINDS = {
    "constant": lambda grid, args: constant_symbol(grid),
    "multiplication": lambda grid, args: multiplication_symbol(grid, multiplication_profile(grid)),
    "translation": lambda grid, args: translation_symbol(grid, args.a),
    "bessel": lambda grid, args: bessel_symbol(grid, args.s),
    "bump": lambda grid, args: gaussian_bump_symbol(grid),
    "phases": lambda grid, args: random_phase_multiplier(grid, args.n_modes, args.seed),
}


def _run_experiment(args):
    cfg = load_config(args.config, args.command) if args.config else SweepConfig(args.command)
    if args.seed is not None:
        cfg = replace(cfg, seeds=[args.seed])
    records = _RUNNERS[args.command](cfg)
    emit_csv(records, args.out or sys.stdout)
    return 1 if has_errors(records) else 0


def _run_regions(args):
    p, q, s, n = from_p(args.p), from_p(args.q), args.s, args.n
    # the predicates validate s and n, so the row is built before anything prints
    row = csv_row([
        str(p), str(q), s, n, tau1(p, q), tau2(p, q),
        region_star(p, q).name, region(p, q).name,
        embeds_sobolev_into_amalgam(p, q, s, n), embeds_amalgam_into_sobolev(p, q, s, n),
        sharp_threshold(p, n),
    ])
    print("p,q,s,n,tau1,tau2,region_star,region,"
          "embeds_sobolev_into_amalgam,embeds_amalgam_into_sobolev,sharp_threshold")
    print(row)
    return 0


def _run_opnorm(args):
    symbol = read_pss(args.symbol)
    est = sobolev_opnorm(symbol, from_p(args.p), args.s, seed=args.seed)
    print("value,method,iterations,residual,restarts,lower_bound_only")
    print(csv_row([est.value, est.method, est.iterations, est.residual, est.restarts,
                   est.lower_bound_only]))
    return 0


def _run_gen(args):
    write_pss(_KINDS[args.kind](UniformGrid(1, args.n, args.extent), args), args.out)
    return 0


def _run_classify(args):
    symbol = read_pss(args.symbol)
    report = s_seminorms(
        symbol, m=args.m, rho=args.rho, delta=args.delta, max_order=args.max_order
    )
    sjo = sjostrand_norm(symbol, s=args.s)
    print("record,alpha,beta,m,rho,delta,s,value")
    for (alpha, beta), value in zip(report.orders, report.values):
        print(csv_row(["seminorm", alpha, beta, report.m, report.rho, report.delta, None, value]))
    print(csv_row(["sjostrand", None, None, None, None, None, args.s, sjo]))
    return 0


@cache
def build_parser():
    """The argument parser, built once per process; each subcommand sets
    `run`, the handler main calls with the parsed arguments."""
    parser = argparse.ArgumentParser(
        prog="modop",
        description="time-frequency operator calculus on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _RUNNERS:
        experiment = sub.add_parser(name, help=f"run the {name} experiment")
        experiment.set_defaults(run=_run_experiment)
        experiment.add_argument("--config", help="strict JSON sweep configuration")
        experiment.add_argument("--out", help="CSV output path (default stdout)")
        experiment.add_argument("--seed", type=int,
                                help="replace the config seed list with this seed")

    regions = sub.add_parser("regions", help="index values and embedding verdicts")
    regions.set_defaults(run=_run_regions)
    regions.add_argument("--p", required=True)
    regions.add_argument("--q", required=True)
    regions.add_argument("--s", type=float, default=0.0)
    regions.add_argument("--n", type=int, default=1)

    opnorm = sub.add_parser("opnorm", help="operator norm of a stored symbol")
    opnorm.set_defaults(run=_run_opnorm)
    opnorm.add_argument("--symbol", required=True, help="PSS symbol file")
    opnorm.add_argument("--p", required=True)
    opnorm.add_argument("--s", type=float, default=0.0)
    opnorm.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="generate a symbol file")
    gen.set_defaults(run=_run_gen)
    gen.add_argument("--kind", required=True, choices=_KINDS)
    gen.add_argument("--n", type=int, required=True, help="grid points per axis")
    gen.add_argument("--extent", type=float, required=True, help="box side length L")
    gen.add_argument("--n-modes", type=int, default=4, dest="n_modes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--s", type=float, default=0.0, help="order for --kind bessel")
    gen.add_argument("--a", type=float, default=1.0, help="shift for --kind translation")
    gen.add_argument("--out", required=True)

    classify = sub.add_parser("classify", help="smoothness diagnostics for a symbol")
    classify.set_defaults(run=_run_classify)
    classify.add_argument("--symbol", required=True, help="PSS symbol file")
    classify.add_argument("--m", type=float, default=0.0)
    classify.add_argument("--rho", type=float, default=1.0)
    classify.add_argument("--delta", type=float, default=0.0)
    classify.add_argument("--max-order", type=int, default=2, dest="max_order")
    classify.add_argument("--s", type=float, default=0.0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)  # experiments, opnorm and gen
        if seed is not None and not is_seed(seed):
            raise InvalidValue(f"--seed must be an unsigned 64-bit integer, got {seed}")
        return args.run(args)
    except (ModopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
