"""Command-line interface.

    mvsc run     --synthetic spec.json --out results/
    mvsc ablate  --manifest data/manifest.json --out results/
    mvsc sweep   --synthetic spec.json --out results/ --restarts 5

Each command accepts only the flags it reads: ablate takes no --variant,
sweep no --lambda1 or --lambda2, and only run takes --dump-graphs and
--trace-residuals. argparse rejects any other flag with exit 2.

Exit codes: 0 success, 2 validation problem, 3 numerical failure,
4 i/o problem.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .data import NORMALIZE_MODES
from .errors import NumericalError, ValidationError
from .pipeline import LAMBDA_GRID, RunConfig, cmd_ablate, cmd_run, cmd_sweep
from .solver import VARIANTS, HyperParams


def _add_common(sp, command):
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", type=Path, help="dataset manifest JSON")
    src.add_argument(
        "--synthetic", type=Path, metavar="SPEC",
        help="synthetic dataset spec JSON",
    )
    if command != "ablate":
        sp.add_argument("--variant", choices=VARIANTS, default=HyperParams.variant)
    if command != "sweep":
        sp.add_argument("--lambda1", type=float, default=HyperParams.lambda1,
                        help="error-term weight (default %(default)s)")
        sp.add_argument("--lambda2", type=float, default=HyperParams.lambda2,
                        help="graph-regularizer weight (default %(default)s)")
    sp.add_argument("--alpha", type=float, default=HyperParams.alpha,
                    help="complementary-regularizer weight (default %(default)s)")
    sp.add_argument("--knn", type=int, default=None,
                    help="graph neighbor count (default min(10, n/clusters))")
    sp.add_argument("--restarts", type=int, default=RunConfig.restarts,
                    help="seeded clusterings of the one fit (default %(default)s)")
    sp.add_argument("--seed", type=int, default=RunConfig.seed,
                    help="base k-means seed; restart r clusters with seed+r "
                         "(default %(default)s)")
    sp.add_argument("--max-iter", type=int, default=HyperParams.max_iter)
    sp.add_argument("--eps", type=float, default=HyperParams.eps,
                    help="stopping tolerance on the constraint residuals")
    sp.add_argument("--out", type=Path, required=True, metavar="DIR",
                    help="output directory for CSV artifacts")
    sp.add_argument("--normalize", choices=NORMALIZE_MODES,
                    default=RunConfig.normalize,
                    help="per-view preprocessing (default %(default)s)")
    if command == "run":
        sp.add_argument("--dump-graphs", nargs="?", const=True,
                        default=RunConfig.dump_graphs, metavar="DIR",
                        help="write the proximity graphs as CSV (to DIR if "
                             "given, else under out/graphs/)")
        sp.add_argument("--trace-residuals", action="store_true",
                        help="write per-iteration residual/objective traces")


def _parse_grid(text):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvsc",
        description="Graph-regularized multi-view subspace clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: sweep would read --lambda2 as --lambda2-grid
    run = sub.add_parser("run", allow_abbrev=False,
                         help="multi-restart evaluation of one variant")
    _add_common(run, "run")
    ablate = sub.add_parser("ablate", allow_abbrev=False,
                            help="compare all four variants, shared seeds")
    _add_common(ablate, "ablate")
    sweep = sub.add_parser("sweep", allow_abbrev=False,
                           help="metrics over a (lambda1, lambda2) grid")
    _add_common(sweep, "sweep")
    default_grid = ",".join(str(g) for g in LAMBDA_GRID)
    sweep.add_argument("--lambda1-grid", type=_parse_grid, default=LAMBDA_GRID,
                       metavar="V1,V2,...", help=f"default {default_grid}")
    sweep.add_argument("--lambda2-grid", type=_parse_grid, default=LAMBDA_GRID,
                       metavar="V1,V2,...", help=f"default {default_grid}")
    return parser


def config_from_args(args):
    # a setting whose flag the command does not take keeps its default
    given = vars(args)
    params = HyperParams(**{
        f.name: given[f.name] for f in fields(HyperParams) if f.name in given
    })
    return RunConfig(
        params=params,
        out_dir=args.out,
        manifest=args.manifest,
        synthetic=args.synthetic,
        normalize=args.normalize,
        restarts=args.restarts,
        seed=args.seed,
        dump_graphs=given.get("dump_graphs", RunConfig.dump_graphs),
        trace_residuals=given.get("trace_residuals", RunConfig.trace_residuals),
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "ablate":
            return cmd_ablate(config)
        return cmd_sweep(config, args.lambda1_grid, args.lambda2_grid)
    except ValidationError as exc:
        print(f"mvsc: validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"mvsc: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an unreadable input (DataIOError) or an unwritable output
        print(f"mvsc: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
