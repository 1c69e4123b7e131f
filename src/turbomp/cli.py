"""Command-line front end: run experiments, parameter sweeps, and ROC curves."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionError, ParameterError
from .harness import (
    ExperimentConfig,
    emit_results,
    emit_roc,
    run_experiment,
    run_roc,
)

_CONFIG_ERRORS = (ConfigurationError, ParameterError, DimensionError, json.JSONDecodeError)


def _load_config(args, values=(), **overrides) -> ExperimentConfig:
    """The JSON config at --config with --seed, --trials and `overrides` if set, then `values`."""
    overrides.update(master_seed=args.seed, trials=args.trials)
    try:
        with open(args.config) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{args.config} must hold a JSON object")
    doc = ExperimentConfig.canonical_keys(doc)  # per document, so an override always wins
    doc.update({k: v for k, v in overrides.items() if v is not None})
    doc.update(ExperimentConfig.canonical_keys(dict(values)))
    return ExperimentConfig.from_dict(doc)


def _make_out(args) -> None:
    """Create --out before the first trial, so a run is not lost for want of a directory."""
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create --out: {exc}") from None


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_run(args) -> int:
    config = _load_config(args, workers=args.workers)
    _make_out(args)
    result = run_experiment(config, progress=print)
    paths = emit_results(result, args.out, stem=args.stem)
    print(f"wrote {paths['csv']} and {paths['json']}")
    return 0


def _cmd_sweep(args) -> int:
    grid = {}
    for spec in args.param or []:
        key, _, values = spec.partition("=")
        if "" in values.split(","):
            raise ConfigurationError(f"--param needs KEY=V1,V2,... without empty values: {spec!r}")
        if key in grid:
            raise ConfigurationError(f"--param sets {key!r} more than once")
        grid[key] = [_parse_value(v) for v in values.split(",")]

    keys = sorted(grid)
    runs = [
        ("_".join(f"{k}{v}" for k, v in zip(keys, combo)) or "base",
         _load_config(args, zip(keys, combo)))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    labels = [label for label, _ in runs]
    if len(set(labels)) < len(labels):  # a later run would overwrite an earlier one's files
        raise ConfigurationError(f"sweep points share an output stem: {labels}")
    _make_out(args)
    for idx, (label, config) in enumerate(runs):
        print(f"[sweep {idx + 1}/{len(runs)}] {label}")
        result = run_experiment(config, progress=print)
        paths = emit_results(result, args.out, stem=f"{args.stem}_{label}")
        print(f"wrote {paths['csv']}")
    return 0


def _cmd_roc(args) -> int:
    config = _load_config(args, snr_db=None if args.snr is None else [args.snr])
    if args.thresholds:
        try:
            thresholds = [float(t) for t in args.thresholds.split(",")]
        except ValueError:
            raise ConfigurationError(f"--thresholds needs numbers: {args.thresholds!r}") from None
    elif args.points < 1:
        raise ConfigurationError(f"--points must be >= 1, got {args.points}")
    else:
        thresholds = np.linspace(0.02, 0.98, args.points).tolist()
    _make_out(args)
    rows = run_roc(config, thresholds, progress=print)
    path = emit_roc(rows, args.out, stem=args.stem)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turbomp",
        description="Grant-free access simulations: activity detection plus "
        "block-wise linear channel estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="JSON config path")
    shared.add_argument("--seed", type=int, default=None, help="override master_seed")
    shared.add_argument("--trials", type=int, default=None, help="override trial count")
    shared.add_argument("--out", default="results", help="output directory")

    run = sub.add_parser("run", parents=[shared], help="run the SNR sweep of a config file")
    run.add_argument("--workers", type=int, default=None, help="override worker count")
    run.add_argument("--stem", default="results", help="output file stem")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", parents=[shared], help="cross-product sweep over config keys")
    sweep.add_argument(
        "--param", action="append", metavar="KEY=V1,V2",
        help="config key and comma-separated values; repeatable",
    )
    sweep.add_argument("--stem", default="sweep")
    sweep.set_defaults(func=_cmd_sweep)

    roc = sub.add_parser("roc", parents=[shared], help="detection threshold sweep at one SNR")
    roc.add_argument("--snr", type=float, help="SNR in dB; replaces the config's snr_db")
    roc.add_argument("--thresholds", default=None, help="comma-separated thresholds in (0,1)")
    roc.add_argument("--points", type=int, default=25, help="grid size when --thresholds absent")
    roc.add_argument("--stem", default="roc")
    roc.set_defaults(func=_cmd_roc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
