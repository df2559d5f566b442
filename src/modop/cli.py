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
its estimator from p alone and prints the method it used.
"""

import argparse
import sys

import numpy as np

from ._rng import is_seed
from .analysis import sjostrand_norm
from .errors import InvalidValue, ModopError
from .experiments import (
    default_config,
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


def _add_experiment_parser(sub, name):
    p = sub.add_parser(name, help=f"run the {name} experiment")
    p.add_argument("--config", help="strict JSON sweep configuration")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--seed", type=int, help="replace the config seed list with this seed")
    return p


def _run_experiment(args):
    if args.config:
        cfg = load_config(args.config, args.command)
    else:
        cfg = default_config(args.command)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    records = _RUNNERS[args.command](cfg)
    emit_csv(records, args.out or sys.stdout)
    return 1 if has_errors(records) else 0


def _run_regions(args):
    p = from_p(args.p)
    q = from_p(args.q)
    s = args.s
    n = args.n
    star = region_star(p, q)
    plain = region(p, q)
    # the predicates validate s and n, so the row is built before anything prints
    row = (
        f"{p},{q},{s:.17g},{n},{tau1(p, q):.17g},{tau2(p, q):.17g},"
        f"{star.name},{plain.name},"
        f"{str(embeds_sobolev_into_amalgam(p, q, s, n)).lower()},"
        f"{str(embeds_amalgam_into_sobolev(p, q, s, n)).lower()},"
        f"{sharp_threshold(p, n):.17g}"
    )
    print(
        "p,q,s,n,tau1,tau2,region_star,region,"
        "embeds_sobolev_into_amalgam,embeds_amalgam_into_sobolev,sharp_threshold"
    )
    print(row)
    return 0


def _run_opnorm(args):
    symbol = read_pss(args.symbol)
    est = sobolev_opnorm(symbol, from_p(args.p), args.s, seed=args.seed)
    print("value,method,iterations,residual,restarts,lower_bound_only")
    print(
        f"{est.value:.17g},{est.method},{est.iterations},{est.residual:.17g},"
        f"{est.restarts},{str(est.lower_bound_only).lower()}"
    )
    return 0


def _run_gen(args):
    grid = UniformGrid(1, args.n, args.extent)
    kind = args.kind
    if kind == "constant":
        symbol = constant_symbol(grid)
    elif kind == "multiplication":
        symbol = multiplication_symbol(grid, 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2))
    elif kind == "translation":
        symbol = translation_symbol(grid, args.a)
    elif kind == "bessel":
        symbol = bessel_symbol(grid, args.s)
    elif kind == "bump":
        symbol = gaussian_bump_symbol(grid)
    elif kind == "phases":
        symbol = random_phase_multiplier(grid, args.n_modes, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ModopError(f"unknown symbol kind {kind!r}")
    write_pss(symbol, args.out)
    return 0


def _run_classify(args):
    symbol = read_pss(args.symbol)
    report = s_seminorms(
        symbol, m=args.m, rho=args.rho, delta=args.delta, max_order=args.max_order
    )
    sjo = sjostrand_norm(symbol, s=args.s)
    print("record,alpha,beta,m,rho,delta,s,value")
    for (alpha, beta), value in zip(report.orders, report.values):
        print(
            f"seminorm,{alpha},{beta},{report.m:.17g},{report.rho:.17g},"
            f"{report.delta:.17g},,{value:.17g}"
        )
    print(f"sjostrand,,,,,,{args.s:.17g},{sjo:.17g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modop",
        description="time-frequency operator calculus on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _RUNNERS:
        _add_experiment_parser(sub, name)

    regions = sub.add_parser("regions", help="index values and embedding verdicts")
    regions.add_argument("--p", required=True)
    regions.add_argument("--q", required=True)
    regions.add_argument("--s", type=float, default=0.0)
    regions.add_argument("--n", type=int, default=1)

    opnorm = sub.add_parser("opnorm", help="operator norm of a stored symbol")
    opnorm.add_argument("--symbol", required=True, help="PSS symbol file")
    opnorm.add_argument("--p", required=True)
    opnorm.add_argument("--s", type=float, default=0.0)
    opnorm.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="generate a symbol file")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["constant", "multiplication", "translation", "bessel", "bump", "phases"],
    )
    gen.add_argument("--n", type=int, required=True, help="grid points per axis")
    gen.add_argument("--extent", type=float, required=True, help="box side length L")
    gen.add_argument("--n-modes", type=int, default=4, dest="n_modes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--s", type=float, default=0.0, help="order for --kind bessel")
    gen.add_argument("--a", type=float, default=1.0, help="shift for --kind translation")
    gen.add_argument("--out", required=True)

    classify = sub.add_parser("classify", help="smoothness diagnostics for a symbol")
    classify.add_argument("--symbol", required=True, help="PSS symbol file")
    classify.add_argument("--m", type=float, default=0.0)
    classify.add_argument("--rho", type=float, default=1.0)
    classify.add_argument("--delta", type=float, default=0.0)
    classify.add_argument("--max-order", type=int, default=2, dest="max_order")
    classify.add_argument("--s", type=float, default=0.0)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = getattr(args, "seed", None)  # experiments, opnorm and gen
        if seed is not None and not is_seed(seed):
            raise InvalidValue(f"--seed must be an unsigned 64-bit integer, got {seed}")
        if args.command in _RUNNERS:
            return _run_experiment(args)
        if args.command == "regions":
            return _run_regions(args)
        if args.command == "opnorm":
            return _run_opnorm(args)
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "classify":
            return _run_classify(args)
        parser.error(f"unknown command {args.command!r}")
    except ModopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
