"""Command-line front-end for config-driven experiments.

Subcommands:
  train <config>             run every (strategy x seed) cell plus comparison
  validate-approx <config>   audit the curvature surrogate against oracles
  probe <ckpt> <data>        knowledge-harmonization probe of a checkpoint
  capacity-sweep <config>    base vs doubled first-shared-width comparison

Exit codes: 0 success, 2 on an ``InputError`` (invalid config, data or
checkpoint), 3 on a ``RunError`` (a run failed on valid input).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import InputError, RunError
from .experiments import (
    ExperimentConfig,
    load_config,
    run_capacity_sweep,
    run_probe,
    run_study,
    run_validate_approx,
)


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.output_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=Path(args.output_dir))
    if args.seed_offset:
        cfg = dataclasses.replace(cfg, seeds=tuple(s + args.seed_offset for s in cfg.seeds))
    return cfg


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    results = run_study(cfg, jobs=args.jobs)
    for r in results:
        values = ", ".join(f"task{t}={v:.4f}" for t, v in enumerate(r.test_values))
        print(f"{r.strategy_label}/seed{r.seed}: test {r.metric} {values} ({r.wall_time_s:.1f}s)")
    print(f"wrote {cfg.output_dir / 'comparison.csv'}")
    return 0


def _cmd_validate_approx(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = run_validate_approx(cfg)
    print(f"wrote {report}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    output_dir = (
        Path(args.output_dir) if args.output_dir is not None else Path(args.checkpoint).parent
    )
    hist, summary = run_probe(
        args.checkpoint, args.data, output_dir, has_group_column=args.group_column
    )
    print(f"wrote {hist}")
    print(f"wrote {summary}")
    return 0


def _cmd_capacity_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    table = run_capacity_sweep(cfg, jobs=args.jobs)
    print(f"wrote {table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograd",
        description="Multi-task training with transference-driven gradient coordination.",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-dir", default=None, help="override the output directory")
    config = argparse.ArgumentParser(add_help=False, parents=[output])
    config.add_argument("config", help="experiment config JSON")
    config.add_argument(
        "--seed-offset", type=int, default=0, help="added to every configured seed"
    )
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[config, jobs], help="run a multi-strategy study")
    p_train.set_defaults(func=_cmd_train)

    p_val = sub.add_parser(
        "validate-approx",
        parents=[config],
        help="compare the curvature surrogate against finite-difference oracles",
    )
    p_val.set_defaults(func=_cmd_validate_approx)

    p_probe = sub.add_parser(
        "probe", parents=[output], help="probe trunk-unit importance balance"
    )
    p_probe.add_argument("checkpoint", help="checkpoint JSON from a training run")
    p_probe.add_argument("data", help="dataset CSV or experiment config JSON")
    p_probe.add_argument(
        "--group-column",
        action="store_true",
        help="dataset CSV has a leading group-id column",
    )
    p_probe.set_defaults(func=_cmd_probe)

    p_cap = sub.add_parser(
        "capacity-sweep", parents=[config, jobs], help="compare base vs doubled trunk width"
    )
    p_cap.set_defaults(func=_cmd_capacity_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3


def entry() -> None:
    sys.exit(main())
