"""Command-line front end: run experiments, parameter sweeps, and ROC curves."""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from .errors import ConfigurationError, DimensionError, ParameterError
from .harness import (
    ExperimentConfig,
    emit_results,
    emit_roc,
    run_experiment,
    run_roc,
)

_CONFIG_ERRORS = (ConfigurationError, ParameterError, DimensionError, FileNotFoundError,
                  json.JSONDecodeError)


def _load_config(path: str, overrides: dict, values=()) -> ExperimentConfig:
    """The JSON config at `path`, with the overrides that are set, then `values`."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    doc.update(values)
    return ExperimentConfig.from_dict(doc)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_run(args) -> int:
    config = _load_config(
        args.config,
        {"master_seed": args.seed, "trials": args.trials, "workers": args.workers},
    )
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
        grid[key] = [_parse_value(v) for v in values.split(",")]

    keys = sorted(grid)
    overrides = {"master_seed": args.seed, "trials": args.trials}
    runs = [
        ("_".join(f"{k}{v}" for k, v in zip(keys, combo)) or "base",
         _load_config(args.config, overrides, zip(keys, combo)))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    for idx, (label, config) in enumerate(runs):
        print(f"[sweep {idx + 1}/{len(runs)}] {label}")
        result = run_experiment(config, progress=print)
        paths = emit_results(result, args.out, stem=f"{args.stem}_{label}")
        print(f"wrote {paths['csv']}")
    return 0


def _cmd_roc(args) -> int:
    config = _load_config(args.config, {"master_seed": args.seed, "trials": args.trials})
    if args.thresholds:
        try:
            thresholds = [float(t) for t in args.thresholds.split(",")]
        except ValueError:
            raise ConfigurationError(f"--thresholds needs numbers: {args.thresholds!r}") from None
    else:
        thresholds = np.linspace(0.02, 0.98, args.points).tolist()
    rows = run_roc(config, thresholds, snr_db=args.snr, progress=print)
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

    run = sub.add_parser("run", help="run the SNR sweep of a config file")
    run.add_argument("--config", required=True, help="JSON config path")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--workers", type=int, default=None, help="override worker count")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--stem", default="results", help="output file stem")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="cross-product sweep over config keys")
    sweep.add_argument("--config", required=True)
    sweep.add_argument(
        "--param", action="append", metavar="KEY=V1,V2",
        help="config key and comma-separated values; repeatable",
    )
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--out", default="results")
    sweep.add_argument("--stem", default="sweep")
    sweep.set_defaults(func=_cmd_sweep)

    roc = sub.add_parser("roc", help="detection threshold sweep at one SNR")
    roc.add_argument("--config", required=True)
    roc.add_argument("--snr", type=float, default=None, help="SNR in dB (default: first in config)")
    roc.add_argument("--thresholds", default=None, help="comma-separated thresholds in (0,1)")
    roc.add_argument("--points", type=int, default=25, help="grid size when --thresholds absent")
    roc.add_argument("--seed", type=int, default=None)
    roc.add_argument("--trials", type=int, default=None)
    roc.add_argument("--out", default="results")
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
