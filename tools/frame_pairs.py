"""Paired frame timing of two source trees on identical captured frames.

Usage, from the repository root:

    python3 tools/frame_pairs.py PARENT_SRC CHANGE_SRC --pairs 10 --frames 20 --seed 1000 \
        [--workload {paper_point,high_snr,massive_k,pooled_sweep}] [--K 16000] [--no-split]

Each path is a `src` directory holding a `turbomp` package.  The frames are those of the
benchmark workload --workload: multipath, K=1000, N=72, T=8, Q=4, M=8, lambda K = 50 and EM,
with `paper_point` (the default) at -15 dB with the corrected noise update and at most 15
iterations, `high_snr` at 60 dB with the default options (the max(m, s) noise update and
at most 50 iterations), `massive_k` as `paper_point` but with K=16000, and `pooled_sweep` as
`paper_point` but with M=4 (its frames run in pool workers, so time them with --no-split);
--K changes K and keeps 50 devices active.  A worker that fails (a --K below T*N = 576, say)
ends the run with exit status 2 and its last error line.  PARENT_SRC draws
the frames once, trials 0 to frames - 1 of `master_seed` --seed through
`harness.run_single_trial`, and their inputs (Y, the pilot rows, the priors and options) are
saved.  A run then times `run_turbo_mp` alone on every saved frame in a fresh interpreter with
1 BLAS thread, after one untimed warm-up frame, and reports milliseconds per iteration: the
summed frame time over the summed iterations; with --no-split both trees run after
`parallel.disable()`, the one-thread path of the harness's pool workers, at any K.  A pair runs
both trees, alternating which runs first.  One JSON line gives the split setting, each side's
median and quartiles over the pairs, the median of the per-pair ratios change / parent, the
pairs the change won, whether both trees returned bitwise-equal results (H, C, lambda_D_post,
decisions, priors, iterations, stop flag, and the diagnostics: every field of every
per-iteration row and the clamp count), whether they returned equal decisions (each frame's
activity decisions, iterations and stop flag), which can hold where the outputs differ in
rounding, and `max_rel_diff`, which sizes such a difference: the largest over frames and over
H, C and lambda_D_post of max |a - b| over the larger max |a| or max |b| of the two trees'
arrays, from the first pair.  It also gives each side's median and quartiles of the minor page
faults per iteration (the `ru_minflt` deltas of `getrusage(RUSAGE_SELF)` around the timed
calls) and of the run's peak RSS (`ru_maxrss`).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PRIORS = ("theta_H", "theta_C", "sigma_w2", "lam")
WORKLOADS = {  # ExperimentConfig fields of each workload beyond the shared ones
    "paper_point": {"snr_db": [-15.0], "em_sigma_correction": True, "max_iters": 15},
    "high_snr": {"snr_db": [60.0]},
    "massive_k": {"K": 16000, "snr_db": [-15.0], "em_sigma_correction": True, "max_iters": 15},
    "pooled_sweep": {"M": 4, "snr_db": [-15.0], "em_sigma_correction": True, "max_iters": 15},
}


def capture(workload: str, K: int, frames: int, seed: int, path: str) -> None:
    """Save the inputs of the first `frames` frames of `workload` that the harness hands
    `run_turbo_mp`."""
    import numpy as np
    from turbomp import ExperimentConfig, TurboOptions, harness
    from turbomp.channel import example_pdp_path

    config = ExperimentConfig(**{"N": 72, "T": 8, "Q": 4, "M": 8, "pdp_file": example_pdp_path(),
                                 "master_seed": seed, **WORKLOADS[workload], "K": K,
                                 "lam": 50 / K})
    saved, run = {}, harness.run_turbo_mp

    def record(Y, cb, priors, opts, *args, **kwargs):
        i = len(saved) // 3
        saved[f"Y{i}"], saved[f"sel{i}"] = Y, cb.selections
        saved[f"priors{i}"] = [getattr(priors, name) for name in PRIORS]
        return run(Y, cb, priors, opts, *args, **kwargs)

    harness.run_turbo_mp = record
    try:
        for trial in range(frames):
            harness.run_single_trial(config, 0, config.snr_db[0], trial)
    finally:
        harness.run_turbo_mp = run
    options = {f.name: getattr(config, f.name) for f in dataclasses.fields(TurboOptions)
               if getattr(config, f.name) != f.default}
    np.savez(path, dims=[K, config.N, config.T, config.Q], power=config.pilot_power,
             options=json.dumps(options), **saved)


def time_frames(path: str, split: str, outputs: str | None = None) -> dict:
    """Milliseconds per iteration of `run_turbo_mp` over the saved frames, and a digest of
    every output; with split "whole", after `parallel.disable()`.  With an `outputs`
    directory, each frame's H, C and lambda_D_post are saved there, or compared with those
    another run saved there (`max_rel_diff`)."""
    import numpy as np
    from turbomp import PilotCodebook, PriorParams, TurboOptions, parallel, run_turbo_mp

    if split == "whole":
        parallel.disable()

    with np.load(path) as data:
        doc = {key: data[key] for key in data.files}
    K, N, T, Q = (int(v) for v in doc["dims"])
    opts = TurboOptions(**json.loads(str(doc["options"])))
    frames = []
    for i in range(sum(key.startswith("Y") for key in doc)):
        cb = PilotCodebook(K=K, N=N, T=T, Q=Q, power=float(doc["power"]), selections=doc[f"sel{i}"])
        priors = PriorParams(**dict(zip(PRIORS, doc[f"priors{i}"].tolist())))
        frames.append((doc[f"Y{i}"], cb, priors))
    run_turbo_mp(*frames[0], opts)  # warm-up: FFT plans and first-call costs
    digest, decisions = hashlib.sha256(), hashlib.sha256()
    seconds, faults, iterations, max_rel_diff = 0.0, 0, 0, 0.0
    for i, (Y, cb, priors) in enumerate(frames):
        faults -= resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        result = run_turbo_mp(Y, cb, priors, opts)
        seconds += perf_counter() - start
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        iterations += result.iterations
        rows = result.diagnostics.rows
        for array in (result.H, result.C, result.lambda_D_post, result.activity,
                      [getattr(result.priors, name) for name in PRIORS],
                      [[np.nan if value is None else value for value in row.values()]
                       for row in rows]):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(f"{list(rows[0])} {result.diagnostics.clamp_events}".encode())
        for d in (digest, decisions):
            d.update(f"{result.iterations} {result.converged}".encode())
        decisions.update(np.ascontiguousarray(result.activity).tobytes())
        if outputs is not None:
            max_rel_diff = max(max_rel_diff, compare_or_save(result, Path(outputs) / f"{i}.npz"))
    return {"ms_per_iter": 1000.0 * seconds / iterations, "iterations": iterations,
            "max_rel_diff": max_rel_diff,
            "faults_per_iter": faults / iterations,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": digest.hexdigest(), "decisions": decisions.hexdigest()}


def compare_or_save(result, path: Path) -> float:
    """Save the frame's H, C and lambda_D_post to `path` and return 0, or, where another run
    saved them there, return their largest relative difference."""
    import numpy as np

    arrays = {name: getattr(result, name) for name in ("H", "C", "lambda_D_post")}
    if not path.exists():
        np.savez(path, **arrays)
        return 0.0
    worst = 0.0
    with np.load(path) as saved:
        for name, a in arrays.items():
            b = saved[name]
            scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
            if scale > 0:
                worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    return worst


def worker(src: str, *args: str) -> dict:
    """Run `args` in a fresh interpreter that imports turbomp from `src`; its last JSON line."""
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, __file__, "--worker", *args], env=env,
                         capture_output=True, text=True)
    if run.returncode:
        error = (run.stderr.strip().splitlines() or [f"exit status {run.returncode}"])[-1]
        print(f"error: worker {args[0]} failed: {error}", file=sys.stderr)
        sys.exit(2)
    return json.loads(run.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="src directory of the baseline tree")
    parser.add_argument("change", help="src directory of the changed tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--frames", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1000, help="master_seed of the frames")
    parser.add_argument("--K", type=int, help="devices (default: the workload's, 1000 or 16000)")
    parser.add_argument("--workload", choices=list(WORKLOADS), default="paper_point")
    parser.add_argument("--no-split", action="store_true",
                        help="run every block pass whole, as the harness's pool workers do")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.frames < 1:
        parser.error("quartiles need --pairs >= 2, and a run needs --frames >= 1")
    if args.K is None:
        args.K = WORKLOADS[args.workload].get("K", 1000)
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = str(Path(tmp) / "frames.npz")
        worker(sides["parent"], "capture", args.workload, str(args.K), str(args.frames),
               str(args.seed), inputs)
        runs, split = {side: [] for side in sides}, "whole" if args.no_split else "split"
        for pair in range(args.pairs):
            for side in sorted(sides, reverse=pair % 2 == 1):
                outputs = [tmp] if pair == 0 else []  # the first pair's second run compares
                runs[side].append(worker(sides[side], "time", inputs, split, *outputs))
    ms = {side: [run["ms_per_iter"] for run in runs[side]] for side in sides}
    ratios = [c / p for c, p in zip(ms["change"], ms["parent"])]
    digests, decided = ({run[key] for side in sides for run in runs[side]}
                        for key in ("digest", "decisions"))
    memory = {f"{side}_{key}": summary([run[key] for run in runs[side]])
              for side in sides for key in ("faults_per_iter", "maxrss_mb")}
    print(json.dumps({
        "workload": args.workload, "K": args.K, "frames": args.frames, "seed": args.seed,
        "split": not args.no_split, "pairs": args.pairs,
        "iterations": runs["parent"][0]["iterations"],
        "parent_ms_per_iter": summary(ms["parent"]), "change_ms_per_iter": summary(ms["change"]),
        "ratio": statistics.median(ratios), "change_wins": sum(r < 1 for r in ratios),
        "bitwise_equal": len(digests) == 1, "decisions_equal": len(decided) == 1,
        "max_rel_diff": max(runs[side][0]["max_rel_diff"] for side in sides), **memory,
        "runs": ms}), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        mode, *rest = sys.argv[2:]
        if mode == "capture":
            capture(rest[0], int(rest[1]), int(rest[2]), int(rest[3]), rest[4])
            print("{}")
        else:
            print(json.dumps(time_frames(*rest)))
        sys.exit(0)
    sys.exit(main())
