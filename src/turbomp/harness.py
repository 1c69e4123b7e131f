"""Experiment configuration, Monte-Carlo orchestration, and result export.

Observations are always generated from the exact physical channel (the
per-subcarrier responses mixed through the pilots plus white noise), so
model mismatch enters the evaluation exactly as the estimator will see it
in the field.  The synthetic-exact mode replaces the physical channel with
data drawn from the estimator's own prior, which is the right fixture for
oracle comparisons.  Every trial derives its random streams from
(master_seed, point_index, trial_index), so records replay exactly.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .channel import (
    MultipathProfile,
    blockwise_basis,
    load_pdp,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from .em import PriorParams, em_initial_params
from .engine import TurboOptions, run_turbo_mp
from .errors import ConfigurationError
from .metrics import check_thresholds, detection_metrics, nmse, nmse_db, roc_sweep
from .pilots import PilotCodebook, build_codebook

CHANNEL_MODES = ("multipath", "exact")


@dataclass
class ExperimentConfig:
    """One experiment: system dimensions, SNR sweep, estimator options."""

    K: int
    N: int
    T: int
    Q: int
    M: int
    snr_db: list[float]
    lam: float
    delta_f: float = 15e3
    pilot_power: float = 1.0
    channel: str = "multipath"
    pdp_file: str | None = None
    theta_H: float | None = None
    theta_C: float | None = None
    sigma_w2: float | None = None
    em: bool = True
    trials: int = 200
    master_seed: int = 0
    threshold: float = 0.5
    max_iters: int = 50
    rel_change_tol: float = 1e-6
    inner_h_updates: int = 2
    em_slow_period: int = 3
    em_damping: float = 1.0
    em_sigma_correction: bool = False
    damping: float = 1.0
    pin_codebook: bool = False
    strict_pilots: bool = True
    min_error_events: int | None = None
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.snr_db, (int, float)):
            self.snr_db = [float(self.snr_db)]
        self.snr_db = [float(s) for s in self.snr_db]
        self.validate()

    def validate(self) -> None:
        if min(self.K, self.N, self.T, self.Q, self.M) < 1:
            raise ConfigurationError("K, N, T, Q, M must all be >= 1")
        if self.N % self.Q != 0:
            raise ConfigurationError(f"Q={self.Q} must divide N={self.N}")
        if self.N // self.Q < 2:
            raise ConfigurationError("need at least 2 subcarriers per sub-block")
        if self.strict_pilots and self.T * self.N > self.K:
            raise ConfigurationError(
                f"T*N={self.T * self.N} > K={self.K} needs strict_pilots=false"
            )
        if not 0.0 < self.lam < 1.0:
            raise ConfigurationError(f"lambda must be in (0, 1), got {self.lam}")
        if not self.snr_db:
            raise ConfigurationError("snr_db must contain at least one value")
        if self.pilot_power <= 0:
            raise ConfigurationError("pilot_power must be positive")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.channel not in CHANNEL_MODES:
            raise ConfigurationError(f"channel must be one of {CHANNEL_MODES}")
        if self.channel == "multipath" and not self.pdp_file:
            raise ConfigurationError("multipath channel needs pdp_file")
        if self.channel == "exact" and (self.theta_H is None or self.theta_C is None):
            raise ConfigurationError("exact channel needs theta_H and theta_C")
        if not self.em:
            if self.theta_H is None or self.theta_C is None:
                raise ConfigurationError("fixed-parameter runs need theta_H and theta_C")
            if self.channel == "multipath" and self.sigma_w2 is None:
                raise ConfigurationError(
                    "fixed-parameter multipath runs need an explicit sigma_w2 "
                    "(noise plus mismatch power)"
                )
        self.turbo_options()  # TurboOptions validates the estimator options

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        if "lambda" in doc:
            doc["lam"] = doc.pop("lambda")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        missing = {"K", "N", "T", "Q", "M", "snr_db", "lam"} - set(doc)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)

    def turbo_options(self) -> TurboOptions:
        return TurboOptions(
            max_iters=self.max_iters,
            rel_change_tol=self.rel_change_tol,
            inner_h_updates=self.inner_h_updates,
            em_enabled=self.em,
            em_slow_period=self.em_slow_period,
            em_damping=self.em_damping,
            em_sigma_correction=self.em_sigma_correction,
            threshold=self.threshold,
            damping=self.damping,
        )

    def noise_variance(self, snr_db: float) -> float:
        return self.pilot_power * 10.0 ** (-snr_db / 10.0)


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


def _point_codebook(config: ExperimentConfig, point_idx: int) -> PilotCodebook:
    ss = np.random.SeedSequence((config.master_seed, point_idx))
    return build_codebook(
        config.K, config.N, config.T, config.Q, P=config.pilot_power,
        seed=np.random.default_rng(ss), strict=config.strict_pilots,
    )


def _run_trial(config, point_idx, snr_db, trial_idx, profile, codebook):
    """Draw one trial's channel and observation and run the estimator on it.

    Returns (realization, basis, result).
    """
    if profile is None and config.channel == "multipath":
        profile = load_pdp(config.pdp_file)
    cb_rng, truth_rng, channel_rng, noise_rng = _trial_streams(
        config.master_seed, point_idx, trial_idx
    )
    cb = codebook
    if cb is None:
        cb = build_codebook(
            config.K, config.N, config.T, config.Q, P=config.pilot_power,
            seed=cb_rng, strict=config.strict_pilots,
        )
    basis = blockwise_basis(config.N, config.Q)

    if config.channel == "exact":
        _, realization = sample_blockwise_exact(
            config.K, config.M, basis, config.lam,
            config.theta_H, config.theta_C, truth_rng,
        )
    else:
        activity = sample_activity(config.K, config.lam, truth_rng)
        realization = sample_channel(
            profile, activity, config.M, config.N, config.delta_f, channel_rng
        )

    sigma_n2 = config.noise_variance(snr_db)
    noise = np.sqrt(sigma_n2 / 2.0) * (
        noise_rng.standard_normal((cb.rows, config.M))
        + 1j * noise_rng.standard_normal((cb.rows, config.M))
    )
    Y = cb.mix_subcarriers(realization.G) + noise

    if config.em:
        priors = em_initial_params(Y, cb)
    else:
        priors = PriorParams(
            theta_H=config.theta_H,
            theta_C=config.theta_C,
            sigma_w2=config.sigma_w2 if config.sigma_w2 is not None else sigma_n2,
            lam=config.lam,
        )
    return realization, basis, run_turbo_mp(Y, cb, priors, config.turbo_options())


def run_single_trial(
    config: ExperimentConfig,
    point_idx: int,
    snr_db: float,
    trial_idx: int,
    profile: MultipathProfile | None = None,
    codebook: PilotCodebook | None = None,
) -> dict:
    """One Monte-Carlo trial; returns a flat record of metrics and traces."""
    start = time.perf_counter()
    realization, basis, result = _run_trial(
        config, point_idx, snr_db, trial_idx, profile, codebook
    )
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
    value = math.nan if skipped else nmse(
        realization.G, result.H, result.C, basis, realization.activity
    )
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
    """`map`, or with workers > 1 the `map` of one process pool for every call."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    config.validate()
    profile = load_pdp(config.pdp_file) if config.channel == "multipath" else None
    points = []
    for point_idx, snr in enumerate(config.snr_db):
        start = time.perf_counter()
        codebook = _point_codebook(config, point_idx) if config.pin_codebook else None
        with _mapper(config.workers) as mapper:
            records = _run_chunks(config, point_idx, snr, profile, codebook, mapper)
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


def _run_chunks(config, point_idx, snr, profile, codebook, mapper) -> list:
    target_events = config.min_error_events
    chunk = config.trials if target_events is None else max(1, min(config.trials, 16))
    records = []
    next_trial = 0
    while next_trial < config.trials:
        count = min(chunk, config.trials - next_trial)
        jobs = [
            (config, point_idx, snr, trial, profile, codebook)
            for trial in range(next_trial, next_trial + count)
        ]
        records.extend(mapper(_trial_job, jobs))
        next_trial += count
        if target_events is not None:
            events = sum(r["miss"] + r["false"] for r in records)
            if events >= target_events:
                break
    return records


def run_roc(config: ExperimentConfig, thresholds, snr_db: float | None = None, progress=None):
    """Pooled miss/false-alarm rates over a threshold sweep at one SNR.

    Posterior activity probabilities and true activity are pooled across
    config.trials trials; each threshold then yields one operating point.
    """
    thresholds = check_thresholds(thresholds)
    snr = config.snr_db[0] if snr_db is None else float(snr_db)
    profile = load_pdp(config.pdp_file) if config.channel == "multipath" else None
    codebook = _point_codebook(config, 0) if config.pin_codebook else None
    jobs = [(config, 0, snr, trial, profile, codebook) for trial in range(config.trials)]
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
    doc = {
        "config": result.config.to_dict(),
        "points": [
            {"snr_db": p.snr_db, "aggregate": p.aggregate, "trials": p.trials}
            for p in result.points
        ],
    }
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=1)
    return {"csv": csv_path, "json": str(json_path)}


def emit_roc(rows, out_dir, stem: str = "roc") -> str:
    return _write_csv(Path(out_dir) / f"{stem}.csv", ROC_COLUMNS, rows)
