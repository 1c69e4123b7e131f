"""Frame time with the two-thread split of `turbomp.parallel` forced on and off, over K.

Usage, from the repository root:

    python3 tools/split_sweep.py --pairs 5 --frames 3 --seed 1

Each K runs multipath frames at N=72, T=8, Q=4, M=8, lambda K = 50 and -15 dB with EM and
exactly 10 iterations (a stopping tolerance no frame reaches), with 1 BLAS thread.  A pair
times the same frames once with `parallel.MIN_SIZE` at 0 (every block pass splits) and once
with it above every block size (none does), alternating which side runs first.  Only
`run_turbo_mp` is timed.  One JSON line per K gives each side's median frame time in ms,
the median of the per-pair ratios split / unsplit, and the pairs the split won.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from turbomp import ExperimentConfig, harness, parallel  # noqa: E402
from turbomp.channel import example_pdp_path  # noqa: E402

KS = (1000, 2000, 4000, 8000, 16000)


def frame_ms(config, frames: int) -> float:
    """Median wall time of `run_turbo_mp` over the config's first `frames` trials."""
    times, run = [], harness.run_turbo_mp

    def timed(*args, **kwargs):
        start = perf_counter()
        out = run(*args, **kwargs)
        times.append(1000.0 * (perf_counter() - start))
        return out

    harness.run_turbo_mp = timed
    try:
        for trial in range(frames):
            harness.run_single_trial(config, 0, config.snr_db[0], trial)
    finally:
        harness.run_turbo_mp = run
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--frames", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sizes = {"split": 0, "unsplit": float("inf")}
    for K in KS:
        config = ExperimentConfig(
            K=K, N=72, T=8, Q=4, M=8, lam=50 / K, snr_db=[-15.0], pdp_file=example_pdp_path(),
            em_sigma_correction=True, max_iters=10, rel_change_tol=1e-300, master_seed=args.seed)
        frame_ms(config, 1)  # warm-up: FFT plans, the PDP cache, the helper thread
        runs = {side: [] for side in sizes}
        for pair in range(args.pairs):
            for side in sorted(sizes, reverse=pair % 2 == 1):
                parallel.MIN_SIZE = sizes[side]
                runs[side].append(frame_ms(config, args.frames))
        ratios = [a / b for a, b in zip(runs["split"], runs["unsplit"])]
        print(json.dumps({
            "K": K, "block_size": K * 4 * 8, "pairs": args.pairs, "frames": args.frames,
            "split_ms": statistics.median(runs["split"]),
            "unsplit_ms": statistics.median(runs["unsplit"]),
            "ratio": statistics.median(ratios), "split_wins": sum(r < 1 for r in ratios),
            "runs": runs}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
