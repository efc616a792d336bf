"""Command-line entry point.

Subcommands: ``run`` executes one config, ``compare`` runs several
configs that differ only in strategy and renders the comparison table,
``sweep`` grids over embedding dimension and participation count.
Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .harness import compare_strategies, run_experiment, sv_sweep, text_table


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed-override", type=int, nargs="+", default=None,
                        help="replace the config's seed list")
    parser.add_argument("--output-dir", default=None,
                        help="replace the config's output directory")
    parser.add_argument("--eval-stride", type=int, default=None,
                        help="evaluate every N-th round instead of every round")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsvm",
        description="Federated-learning simulator with SVM-guided aggregation")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config")
    _add_common(run_p)

    cmp_p = sub.add_parser("compare", help="run configs differing only in strategy")
    cmp_p.add_argument("configs", nargs="+")
    _add_common(cmp_p)

    sweep_p = sub.add_parser("sweep", help="embedding-size / participation sweep")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--dims", type=int, nargs="+", required=True)
    sweep_p.add_argument("--clients", type=int, nargs="+", required=True)
    _add_common(sweep_p)
    return parser


def _load(path, args):
    """The parsed config with the command-line overrides; ``replace``
    checks the result again."""
    overrides = {"seeds": args.seed_override and tuple(args.seed_override),
                 "output_dir": args.output_dir, "eval_stride": args.eval_stride}
    return dataclasses.replace(parse_config(path),
                               **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args.config, args)
            result = run_experiment(cfg)
            print((result.output_dir / "summary.txt").read_text(), end="")
            if result.failed_seeds:
                print(f"failed seeds: {result.failed_seeds}", file=sys.stderr)
                return 2
            return 0
        if args.command == "compare":
            cfgs = [_load(path, args) for path in args.configs]
            out = args.output_dir or cfgs[0].output_dir
            compare_strategies(cfgs, out)
            print((Path(out) / "compare.txt").read_text(), end="")
            return 0
        if args.command == "sweep":
            cfg = _load(args.config, args)
            out = args.output_dir or cfg.output_dir
            rows = sv_sweep(cfg, args.dims, args.clients, out)
            print(text_table({"d": ">6", "C": ">6", "round": ">6", "sv_count": ">9", "f1": ">9"},
                             [(row["d"], row["C"], row["round"], f"{row['sv_count']:.2f}",
                               f"{row['f1']:.4f}") for row in rows]))
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
