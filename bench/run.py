"""Benchmark of the Turbo-MP receiver: throughput, frame latency and accuracy.

Usage, from the repository root:

    python3 bench/run.py --workload paper_point --seed 1 --seconds 20 --trace 0

The program is driven only through its public API (``ExperimentConfig`` and
``run_experiment``, plus the public functions of its modules).  A run repeats
rounds of one ``run_experiment`` call each until ``--seconds`` have passed,
checks every trial against figures computed apart from the program (see
``checks.py``), prints each metric by name and unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run (see ``probe.py``) and the span trace is
written to ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import turbomp  # noqa: E402
from turbomp import harness  # noqa: E402
from turbomp.channel import example_pdp_path, load_pdp  # noqa: E402

from checks import block_statistics, check_trial, known_support_lmmse, same_record  # noqa: E402
from probe import LayerTotals, Probe, Tracer  # noqa: E402

if Path(turbomp.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"turbomp imported from {turbomp.__file__}, not from {SRC}")

COMMON = {"N": 72, "T": 8, "Q": 4, "lam": 0.05, "channel": "multipath", "em": True}
TAIL_PERCENTILE = 80
SETUP_REPEATS = 9
REFERENCE_EVERY = 2  # the known-support LMMSE runs on every second trial


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # ExperimentConfig fields on top of COMMON
    gap_db: float  # allowed NMSE gap to the known-support LMMSE, in dB

    def experiment(self, seed: int, round_idx: int) -> "harness.ExperimentConfig":
        doc = {**COMMON, **self.config, "pdp_file": example_pdp_path(), "master_seed": seed * 1000 + round_idx}
        return turbomp.ExperimentConfig.from_dict(doc)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_point",
            {"K": 1000, "M": 8, "snr_db": [-15.0], "em_sigma_correction": True, "max_iters": 15, "trials": 4},
            gap_db=1.0,
        ),
        Workload(
            "high_snr",
            {"K": 1000, "M": 8, "snr_db": [60.0], "trials": 2},
            gap_db=3.0,
        ),
        Workload(
            "massive_k",
            {"K": 16000, "M": 8, "lam": 0.05 / 16, "snr_db": [-15.0], "em_sigma_correction": True,
             "max_iters": 15, "trials": 1},
            gap_db=1.0,
        ),
        Workload(
            "pooled_sweep",
            {"K": 1000, "M": 4, "snr_db": [-15.0], "em_sigma_correction": True, "max_iters": 15,
             "trials": 160, "min_error_events": 250, "workers": 2},
            gap_db=1.0,
        ),
    )
}

END_TO_END_UNITS = {
    "trials_per_s": "trial/s",
    "frame_ms": "ms",
    "frame_ms_tail": "ms",
    "nmse": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "engine.iters": "iter/frame",
    "engine.converged": "share",
    "engine.iter_ms": "ms/iter",
    "engine.self_ms": "ms/iter",
    "lmmse.ms": "ms/iter",
    "lmmse.calls": "calls/iter",
    "pilots.ms": "ms/iter",
    "pilots.adjoint_ms": "ms/iter",
    "pilots.calls": "calls/iter",
    "denoiser.ms": "ms/iter",
    "activity.ms": "ms/iter",
    "em.ms": "ms/iter",
    "channel.ms": "ms/trial",
    "pilots.mix_ms": "ms/trial",
    "metrics.ms": "ms/trial",
    "harness.overhead_ms": "ms/trial",
    "harness.pool_starts": "pools/call",
    "harness.parallel_eff": "share",
    "trace.overhead": "ratio",
}
LAYER_SUM_RTOL = 0.01  # in-frame self times against the probe's frame timer

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import turbomp
from turbomp.channel import example_pdp_path, load_pdp
config = turbomp.ExperimentConfig.from_dict({**json.loads(sys.argv[2]), "pdp_file": example_pdp_path()})
config.validate()
load_pdp(config.pdp_file)
print(time.perf_counter() - t0)
"""


def measure_setup(workload: Workload) -> float:
    """Median over fresh interpreters of: import turbomp, build and validate the config, load the PDP."""
    doc = json.dumps({**COMMON, **workload.config})
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), doc],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process, plus `workers` times the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * children) / 1024.0


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    trials: int = 0
    frame_s: list = field(default_factory=list)
    nmse: list = field(default_factory=list)
    floor: list = field(default_factory=list)
    ref_pairs: list = field(default_factory=list)  # (estimator nmse, known-support nmse)
    iterations: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    errors: int = 0
    decisions: int = 0
    # traced rounds only
    traced_frame_s: list = field(default_factory=list)
    untraced_frame_s: list = field(default_factory=list)
    traced_trials: int = 0
    traced_iters: int = 0
    traced_trial_s: float = 0.0
    traced_wall_s: float = 0.0
    traced_calls: int = 0
    pools: int = 0
    layers: LayerTotals = field(default_factory=LayerTotals.empty)
    spans: list = field(default_factory=list)  # ("master_seed:trial", spans)


def run_round(workload, config, stats, replay, block_stats, noise_var, traced, probe, tracer):
    """One run_experiment call plus the checks of its trials."""
    if traced:
        probe.uninstall()
        tracer.install()
        probe.install()
    pools_before = tracer.pools_started if tracer else 0
    start = perf_counter()
    try:
        result = turbomp.run_experiment(config)
    except Exception as err:  # no trial isolation in the harness: the call's trials all fail
        stats.attempted += config.trials
        stats.failed += config.trials
        stats.failures.append(f"run_experiment raised {err!r}")
        return
    finally:
        wall = perf_counter() - start
        if traced:
            probe.uninstall()
            tracer.uninstall()
            probe.install()
    stats.wall_s += wall
    records = [rec for point in result.points for rec in point.trials]
    stats.trials += len(records)
    if traced:
        stats.traced_wall_s += wall
        stats.traced_calls += 1
        stats.pools += tracer.pools_started - pools_before

    for rec in records:
        stats.attempted += 1
        cap = rec.pop("_bench", None)
        key = (config.master_seed, rec["trial"])
        if cap is None:
            stats.failed += 1
            stats.failures.append(f"{key}: no capture in the record")
            continue
        try:
            failures, value, floor = check_trial(rec, cap, config.N, config.Q, config.threshold)
            if key == replay[0] and not same_record(rec, replay[1]):
                failures.append("record differs from its replay")
            ref = None
            if not math.isnan(value) and rec["trial"] % REFERENCE_EVERY == 0:
                ref = known_support_lmmse(cap, block_stats, noise_var, config.T, config.Q)
        except Exception as err:  # a check that cannot run fails the trial
            failures, value, floor, ref = [f"check raised {err!r}"], math.nan, math.nan, None
        if failures:
            stats.failed += 1
            stats.failures.append(f"{key}: {'; '.join(failures)}")
        stats.frame_s.append(cap.frame_s)
        stats.iterations.append(rec["iterations"])
        stats.converged.append(bool(rec["converged"]))
        stats.errors += rec["miss"] + rec["false"]
        stats.decisions += config.K
        if not rec["skipped_nmse"]:
            stats.nmse.append(rec["nmse"])
        if not math.isnan(floor):
            stats.floor.append(floor)
        if ref is not None:
            stats.ref_pairs.append((value, ref))
        if traced:
            stats.traced_frame_s.append(cap.frame_s)
            stats.traced_trials += 1
            stats.traced_iters += rec["iterations"]
            stats.traced_trial_s += cap.trial_s
            stats.layers.add(cap.spans)
            stats.spans.append((f"{key[0]}:{key[1]}", cap.spans))
        elif tracer is not None:
            stats.untraced_frame_s.append(cap.frame_s)


def aggregate_checks(workload, config, stats) -> list:
    """Checks over the whole run; any failure makes the run incorrect."""
    problems = []
    if stats.failed == stats.attempted or not stats.nmse:
        return ["no trial passed its checks"]
    nmse = float(np.mean(stats.nmse))
    if not nmse < 1.0:
        problems.append(f"nmse {nmse:.4f} not below the zero estimate's 1.0")
    pe = stats.errors / stats.decisions
    if not pe < config.lam / 4:
        problems.append(f"pe {pe:.3e} not well below lambda {config.lam} (limit lambda/4)")
    if stats.ref_pairs:
        est, ref = np.mean(stats.ref_pairs, axis=0)
        gap = 10 * math.log10(est / ref)
        if not gap <= workload.gap_db:
            problems.append(f"NMSE {gap:.2f} dB above the known-support LMMSE (limit {workload.gap_db} dB)")
    return problems


def end_to_end_metrics(stats, setup_s, workers) -> dict:
    frames_ms = [1000.0 * s for s in stats.frame_s]
    return {
        "trials_per_s": stats.trials / stats.wall_s,
        "frame_ms": statistics.median(frames_ms),
        "frame_ms_tail": float(np.percentile(frames_ms, TAIL_PERCENTILE)),
        "nmse": float(np.mean(stats.nmse)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workers),
    }


def per_layer_metrics(stats, workers) -> dict:
    lt = stats.layers
    per_iter = lambda s: 1000.0 * s / stats.traced_iters
    per_trial = lambda s: 1000.0 * s / stats.traced_trials
    busy = workers * stats.traced_wall_s
    return {
        "engine.iters": float(np.mean(stats.iterations)),
        "engine.converged": float(np.mean(stats.converged)),
        "engine.iter_ms": per_iter(lt.frame_span_s),
        "engine.self_ms": per_iter(lt.frame_self.get("engine", 0.0)),
        "lmmse.ms": per_iter(lt.frame_self.get("lmmse", 0.0)),
        "lmmse.calls": lt.frame_calls.get("lmmse", 0) / stats.traced_iters,
        "pilots.ms": per_iter(lt.frame_self.get("pilots", 0.0)),
        "pilots.adjoint_ms": per_iter(lt.adjoint_s),
        "pilots.calls": lt.pilot_ops / stats.traced_iters,
        "denoiser.ms": per_iter(lt.frame_self.get("denoiser", 0.0)),
        "activity.ms": per_iter(lt.frame_self.get("activity", 0.0)),
        "em.ms": per_iter(lt.frame_self.get("em", 0.0)),
        "channel.ms": per_trial(lt.trial_self.get("channel", 0.0)),
        "pilots.mix_ms": per_trial(lt.trial_self.get("pilots", 0.0)),
        "metrics.ms": per_trial(lt.trial_self.get("metrics", 0.0)),
        "harness.overhead_ms": per_trial(busy - stats.traced_trial_s),
        "harness.pool_starts": stats.pools / stats.traced_calls,
        "harness.parallel_eff": stats.traced_trial_s / busy,
        "trace.overhead": statistics.median(stats.traced_frame_s) / statistics.median(stats.untraced_frame_s),
    }


def layer_sum_problem(stats) -> str | None:
    """The in-frame self times of all layers must add up to the frames' own timer."""
    traced = sum(stats.layers.frame_self.values())
    timed = sum(stats.traced_frame_s)
    if abs(traced - timed) > LAYER_SUM_RTOL * timed:
        return f"layer self times {traced:.4f} s do not add up to the frame time {timed:.4f} s"
    return None


def write_trace(path: Path, groups) -> None:
    """One line per span: its trial ("master_seed:trial", or "-" for the parent
    process's own spans), id and parent id within that trial, name, start and end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("trial\tid\tparent\tname\tstart_s\tend_s\n")
        for trial, spans in groups:
            for i, (name, t0, t1, parent) in enumerate(spans):
                f.write(f"{trial}\t{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Run one workload for `seconds`; returns the result object of the last output line."""
    setup_s = None if trace else measure_setup(workload)
    first = workload.experiment(seed, 0)
    profile = load_pdp(first.pdp_file)
    block_stats = block_statistics(profile.powers, profile.delays, first.delta_f, first.N, first.Q)
    noise_var = first.pilot_power * 10.0 ** (-first.snr_db[0] / 10.0)

    tracer = Tracer() if trace else None
    probe = Probe(tracer)
    probe.install()
    stats = RunStats()
    try:
        # warm-up trial, run alone from its seed triple; its record is the replay reference
        warm = harness.run_single_trial(first, 0, first.snr_db[0], 0)
        warm.pop("_bench")
        replay = ((first.master_seed, 0), warm)
        start = perf_counter()
        round_idx = 0
        while True:
            config = first if round_idx == 0 else workload.experiment(seed, round_idx)
            traced = trace and round_idx % 2 == 0
            run_round(workload, config, stats, replay, block_stats, noise_var, traced, probe, tracer)
            round_idx += 1
            if perf_counter() - start >= seconds and (not trace or round_idx >= 2):
                break
    finally:
        probe.uninstall()

    problems = aggregate_checks(workload, first, stats)
    if trace:
        problems += [p for p in [layer_sum_problem(stats)] if p]
        write_trace(OUT / f"trace-{workload.name}.tsv", stats.spans + [("-", tracer.take(0))])
        metrics, units = per_layer_metrics(stats, first.workers), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(stats, setup_s, first.workers), END_TO_END_UNITS
    for problem in stats.failures[:5] + problems:
        log(f"CHECK FAILED: {problem}")
    if stats.ref_pairs:
        est, ref = np.mean(stats.ref_pairs, axis=0)
        log(f"{workload.name}: known-support LMMSE {10 * math.log10(ref):.2f} dB, estimator "
            f"{10 * math.log10(est):.2f} dB over {len(stats.ref_pairs)} trials; "
            f"mismatch floor {10 * math.log10(np.mean(stats.floor)):.2f} dB")
    if stats.decisions:
        log(f"{workload.name}: Pe {stats.errors / stats.decisions:.3e} against lambda {first.lam:.3e}")
    log(f"{workload.name}: {stats.attempted} trials attempted, {stats.failed} failed, "
        f"{len(stats.frame_s)} frames")
    for name, value in metrics.items():
        log(f"{workload.name}: {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, help="override the workload's worker count")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.workers is not None:
        workload = replace(workload, config={**workload.config, "workers": args.workers})
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
