"""Experiment configuration, Monte-Carlo orchestration, and result export.

Observations are always generated from the exact physical channel (the
per-subcarrier responses mixed through the pilots plus white noise), so
model mismatch enters the evaluation exactly as the estimator will see it
in the field.  The synthetic-exact mode replaces the physical channel with
data drawn from the estimator's own prior, which is the right fixture for
oracle comparisons.

A trial is named by its config, point index, SNR and trial index: it derives its
random streams, pilots included, from (master_seed, point_index, trial_index) and
reads everything else from the config, so `run_single_trial` replays any record
alone.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from pathlib import Path

import numpy as np

from . import parallel
from .channel import (
    BlockwiseBasis,
    load_pdp,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from .em import PriorParams, em_initial_params
from .engine import TurboOptions, _number, run_turbo_mp
from .errors import ConfigurationError
from .metrics import check_thresholds, detection_metrics, nmse, nmse_db, roc_sweep
from .pilots import build_codebook, check_pilot_rows

CHANNEL_MODES = ("multipath", "exact")


def _is_finite(value) -> bool:
    try:  # float() also rejects an int beyond the float range, which every trial would fail on
        return _number(value) and math.isfinite(float(value))
    except OverflowError:
        return False


_KINDS = {  # field annotation -> (check, description, the Python type a value is stored as)
    "int": (lambda v: _number(v, numbers.Integral), "an integer", int),
    "float": (_is_finite, "a finite number", float),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "true or false", bool),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "tuple[float, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite, v)),
                          "a finite number or a list of finite numbers",
                          lambda v: tuple(map(float, v))),
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(TurboOptions):
    """One experiment: system dimensions, SNR sweep, estimator options.

    The estimator options are the inherited `TurboOptions` fields: max_iters, rel_change_tol,
    em_enabled, em_sigma_correction and threshold.  "lambda" and "em" are read as lam,
    em_enabled.
    A config is frozen and checked once, when built (by `dataclasses.replace` too).  Every
    field must hold a value of its annotated type, a float a finite one, and is stored as that
    Python type, so a numpy scalar reaches the results JSON as a plain number; an optional one
    may also be None; snr_db, a number or a list, is kept as a tuple of floats.  master_seed
    must be >= 0, and each SNR must give a positive, finite noise variance.  Each trial draws
    its own pilots, T*N distinct DFT rows of K.  A multipath config reads its power delay
    profile once per process, when it is built, so a pdp_file that cannot be read or parsed
    fails before any trial runs.  The trials run on a process pool of min(workers, CPUs this
    process may use) processes where that is above 1.
    """

    K: int
    N: int
    T: int
    Q: int
    M: int
    snr_db: tuple[float, ...]
    lam: float
    delta_f: float = 15e3
    pilot_power: float = 1.0
    channel: str = "multipath"
    pdp_file: str | None = None
    theta_H: float | None = None
    theta_C: float | None = None
    sigma_w2: float | None = None
    em_enabled: bool = True  # experiments learn the priors; a bare engine run keeps those given
    trials: int = 200
    master_seed: int = 0
    min_error_events: int | None = None
    workers: int = 1

    def __post_init__(self):
        if _number(self.snr_db):
            object.__setattr__(self, "snr_db", [self.snr_db])
        self.validate()
        for f in fields(self):  # numpy scalars too, so the config is plain JSON
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, _KINDS[f.type.partition(" | ")[0]][2](value))

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            check, description, _ = _KINDS[kind]
            if not (check(value) or optional and value is None):
                raise ConfigurationError(f"{f.name} must be {description}, got {value!r}")
        super().validate()
        for name in ("K", "N", "T", "Q", "M", "trials", "workers", "min_error_events"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        BlockwiseBasis(N=self.N, Q=self.Q)  # raises unless Q divides N into blocks of >= 2
        check_pilot_rows(self.K, self.N, self.T, self.Q)
        if not 0.0 < self.lam < 1.0:
            raise ConfigurationError(f"lambda must be in (0, 1), got {self.lam}")
        if not self.snr_db:
            raise ConfigurationError("snr_db must contain at least one value")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        for snr in self.snr_db:  # a pilot_power <= 0 fails here too
            if not 0.0 < self.noise_variance(snr) < math.inf:
                raise ConfigurationError(f"snr_db {snr} at pilot_power {self.pilot_power} "
                                         "must give a positive, finite noise variance")
        for name in ("theta_H", "theta_C", "sigma_w2"):
            value = getattr(self, name)
            zero_ok = name == "theta_C" and self.em_enabled  # the exact sampler allows theta_C = 0
            if value is not None and not (0 < value or zero_ok and value == 0):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if self.channel not in CHANNEL_MODES:
            raise ConfigurationError(f"channel must be one of {CHANNEL_MODES}")
        if self.channel == "multipath":
            if not self.pdp_file:
                raise ConfigurationError("multipath channel needs pdp_file")
            _profile(self.pdp_file)
        if self.channel == "exact" or not self.em_enabled:
            if self.theta_H is None or self.theta_C is None:
                raise ConfigurationError("exact or fixed-parameter runs need theta_H and theta_C")
        if not self.em_enabled and self.channel == "multipath" and self.sigma_w2 is None:
            raise ConfigurationError(
                "fixed-parameter multipath runs need an explicit sigma_w2 "
                "(noise plus mismatch power)"
            )

    @staticmethod
    def canonical_keys(doc: dict) -> dict:
        """`doc` with each alias renamed to its field; naming both in one doc is an error."""
        doc = dict(doc)
        for alias, name in (("lambda", "lam"), ("em", "em_enabled")):
            if alias in doc:
                if name in doc:
                    raise ConfigurationError(f"config sets both {alias!r} and {name!r}")
                doc[name] = doc.pop(alias)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = cls.canonical_keys(doc)
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        missing = {"K", "N", "T", "Q", "M", "snr_db", "lam"} - set(doc)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)

    def noise_variance(self, snr_db: float) -> float:
        try:
            return self.pilot_power * 10.0 ** (-snr_db / 10.0)
        except OverflowError:  # a float power raises where its result would be inf
            return math.inf


@dataclass
class PointResult:
    snr_db: float
    aggregate: dict
    trials: list = field(default_factory=list)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    points: list


def _trial_streams(master_seed: int, point_idx: int, trial_idx: int):
    ss = np.random.SeedSequence((master_seed, point_idx, trial_idx))
    return [np.random.default_rng(child) for child in ss.spawn(4)]


_profile = cache(load_pdp)  # each power delay profile file is read once per process


def _run_trial(config, point_idx, snr_db, trial_idx):
    """Draw one trial's channel and observation and run the estimator on it.

    Returns (realization, basis, result).
    """
    cb_rng, truth_rng, channel_rng, noise_rng = _trial_streams(
        config.master_seed, point_idx, trial_idx
    )
    cb = build_codebook(config.K, config.N, config.T, config.Q, P=config.pilot_power, seed=cb_rng)
    basis = BlockwiseBasis(N=config.N, Q=config.Q)

    if config.channel == "exact":
        _, realization = sample_blockwise_exact(
            config.K, config.M, basis, config.lam,
            config.theta_H, config.theta_C, truth_rng,
        )
    else:
        activity = sample_activity(config.K, config.lam, truth_rng)
        realization = sample_channel(
            _profile(config.pdp_file), activity, config.M, config.N, config.delta_f, channel_rng
        )

    sigma_n2 = config.noise_variance(snr_db)
    noise = np.sqrt(sigma_n2 / 2.0) * (
        noise_rng.standard_normal((cb.rows, config.M))
        + 1j * noise_rng.standard_normal((cb.rows, config.M))
    )
    Y = cb.mix_subcarriers(realization.G_active, realization.active) + noise

    if config.em_enabled:
        priors = em_initial_params(Y, cb)
    else:
        priors = PriorParams(
            theta_H=config.theta_H,
            theta_C=config.theta_C,
            sigma_w2=config.sigma_w2 if config.sigma_w2 is not None else sigma_n2,
            lam=config.lam,
        )
    return realization, basis, run_turbo_mp(Y, cb, priors, config)


def run_single_trial(config: ExperimentConfig, point_idx: int, snr_db: float,
                     trial_idx: int) -> dict:
    """One Monte-Carlo trial, named in full by its arguments; returns a flat record of
    metrics and traces."""
    start = time.perf_counter()
    realization, basis, result = _run_trial(config, point_idx, snr_db, trial_idx)
    det = detection_metrics(realization.activity, result.activity)
    record = {
        "trial": trial_idx,
        "snr_db": snr_db,
        "active": int(realization.activity.sum()),
        "p_miss": det.p_miss,
        "p_false": det.p_false,
        "pe": det.pe,
        "miss": det.miss_count,
        "false": det.false_count,
        "iterations": result.iterations,
        "converged": result.converged,
        "lambda_hat": result.priors.lam,
        "theta_H_hat": result.priors.theta_H,
        "theta_C_hat": result.priors.theta_C,
        "sigma_w2_hat": result.priors.sigma_w2,
    }
    skipped = not realization.activity.any()  # NMSE needs an active device
    value = math.nan if skipped else nmse(realization, result.H, result.C, basis)
    record["nmse"] = value
    record["nmse_db"] = math.nan if skipped else nmse_db(value)
    record["skipped_nmse"] = skipped
    record["wall_s"] = time.perf_counter() - start
    return record


def _trial_job(args):
    return run_single_trial(*args)


def _roc_job(args):
    realization, _, result = _run_trial(*args)
    return result.lambda_D_post, realization.activity


@contextmanager
def _mapper(workers: int):
    """`map`, or the `map` of one pool of min(workers, CPUs this process may use) processes
    for every call where that is above 1; pool workers run every block pass unsplit."""
    processes = min(workers, parallel.cpus())
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes, initializer=parallel.disable) as pool:
            yield pool.map
    else:
        yield map


def _aggregate_point(config: ExperimentConfig, snr_db: float, records: list, wall: float) -> dict:
    n = len(records)
    values = [r["nmse"] for r in records if not r["skipped_nmse"]]
    nmse_mean = math.fsum(values) / len(values) if values else math.nan  # exact, order-free sum
    miss = sum(r["miss"] for r in records)
    false = sum(r["false"] for r in records)
    decisions = config.K * n
    return {
        "snr_db": snr_db,
        "K": config.K,
        "N": config.N,
        "T": config.T,
        "Q": config.Q,
        "M": config.M,
        "lam": config.lam,
        "trials": n,
        "nmse_mean": nmse_mean,
        "nmse_db": nmse_db(nmse_mean) if values else math.nan,
        "p_miss": miss / decisions,
        "p_false": false / decisions,
        "pe": (miss + false) / decisions,
        "miss_events": miss,
        "false_events": false,
        "decisions": decisions,
        "skipped_nmse": sum(1 for r in records if r["skipped_nmse"]),
        "wall_s": wall,
    }


def run_experiment(config: ExperimentConfig, progress=None) -> ExperimentResult:
    """Run every SNR point of the configuration and aggregate the trials.

    With min_error_events set, each point keeps running (in chunks, up to
    config.trials) until that many detection errors have accumulated.
    """
    points = []
    for point_idx, snr in enumerate(config.snr_db):
        start = time.perf_counter()
        with _mapper(config.workers) as mapper:
            records = _run_chunks(config, point_idx, snr, mapper)
        wall = time.perf_counter() - start
        aggregate = _aggregate_point(config, snr, records, wall)
        points.append(PointResult(snr_db=snr, aggregate=aggregate, trials=records))
        if progress is not None:
            progress(
                f"snr={snr:+.1f} dB: trials={aggregate['trials']} "
                f"nmse={aggregate['nmse_db']:.2f} dB pe={aggregate['pe']:.3e} "
                f"({wall:.1f} s)"
            )
    return ExperimentResult(config=config, points=points)


def _run_chunks(config, point_idx, snr, mapper) -> list:
    target = config.min_error_events
    chunk = config.trials if target is None else 16
    records = []
    for first in range(0, config.trials, chunk):
        trials = range(first, min(first + chunk, config.trials))
        records.extend(mapper(_trial_job, [(config, point_idx, snr, t) for t in trials]))
        if target is not None and sum(r["miss"] + r["false"] for r in records) >= target:
            break
    return records


def run_roc(config: ExperimentConfig, thresholds, progress=None):
    """Pooled miss/false-alarm rates over a threshold sweep at the config's first SNR.

    Posterior activity probabilities and true activity are pooled across
    config.trials trials; each threshold then yields one operating point.
    """
    thresholds = check_thresholds(thresholds)
    snr = config.snr_db[0]
    jobs = [(config, 0, snr, trial) for trial in range(config.trials)]
    posts, truths = [], []
    with _mapper(config.workers) as mapper:
        for done, (post, truth) in enumerate(mapper(_roc_job, jobs), 1):
            posts.append(post)
            truths.append(truth)
            if progress is not None and done % 25 == 0:
                progress(f"roc trial {done}/{config.trials}")

    sweep = roc_sweep(np.concatenate(posts), np.concatenate(truths), thresholds)
    return [
        {"threshold": float(thr), "snr_db": snr, "p_miss": m.p_miss, "p_false": m.p_false,
         "miss_events": m.miss_count, "false_events": m.false_count, "decisions": m.num_devices}
        for thr, m in zip(thresholds, sweep)
    ]


AGGREGATE_COLUMNS = [
    "snr_db", "K", "N", "T", "Q", "M", "lam", "trials",
    "nmse_mean", "nmse_db", "p_miss", "p_false", "pe",
    "miss_events", "false_events", "decisions", "skipped_nmse", "wall_s",
]
ROC_COLUMNS = [
    "threshold", "snr_db", "p_miss", "p_false", "miss_events", "false_events", "decisions",
]


def _write_csv(path: Path, columns: list, rows) -> str:
    """One header row of `columns`, then one row per dict (other keys dropped)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def emit_results(result: ExperimentResult, out_dir, stem: str = "results") -> dict:
    """Write aggregate CSV plus a full JSON record; returns the file paths."""
    out = Path(out_dir)
    csv_path = _write_csv(
        out / f"{stem}.csv", AGGREGATE_COLUMNS, (p.aggregate for p in result.points)
    )
    json_path = out / f"{stem}.json"
    doc = json.loads(json.dumps(asdict(result)), parse_constant=lambda _: None)  # NaN, inf: null
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=1, allow_nan=False)
    return {"csv": csv_path, "json": str(json_path)}


def emit_roc(rows, out_dir, stem: str = "roc") -> str:
    return _write_csv(Path(out_dir) / f"{stem}.csv", ROC_COLUMNS, rows)
