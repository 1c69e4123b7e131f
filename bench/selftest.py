"""Fast self-test of the benchmark: a tiny configuration end to end, then
deliberately corrupted outputs that the checks must catch.

    python3 bench/selftest.py

Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import dataclasses
import sys

import run
from turbomp import harness

TINY = run.Workload(
    "tiny",
    {"K": 256, "N": 16, "T": 4, "Q": 2, "M": 4, "lam": 0.1, "snr_db": [10.0], "max_iters": 8, "trials": 3},
    gap_db=3.0,
)


def quiet(_line):
    pass


def run_tiny(trace=False):
    return run.run_workload(TINY, seed=7, seconds=0.0, trace=trace, log=quiet)


def patched(name, make):
    """Run the tiny workload with harness.<name> replaced by make(original)."""
    original = getattr(harness, name)
    setattr(harness, name, make(original))
    try:
        return run_tiny()
    finally:
        setattr(harness, name, original)


def zero_estimate(run_turbo_mp):
    def corrupted(*args, **kwargs):
        res = run_turbo_mp(*args, **kwargs)
        return dataclasses.replace(res, H=0 * res.H, C=0 * res.C)
    return corrupted


def flipped_decision(run_turbo_mp):
    def corrupted(*args, **kwargs):
        res = run_turbo_mp(*args, **kwargs)
        activity = res.activity.copy()
        activity[0] ^= 1
        return dataclasses.replace(res, activity=activity)
    return corrupted


def halved_score(nmse):
    return lambda *args, **kwargs: 0.5 * nmse(*args, **kwargs)


def main() -> int:
    problems = []

    def expect(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    clean = run_tiny()
    expect("clean run is correct with no failed trial",
           clean["correct"] and clean["failed"] == 0 and clean["attempted"] >= 1)
    expect("clean run reports every end-to-end metric",
           set(clean["metrics"]) == set(run.END_TO_END_UNITS))
    traced = run_tiny(trace=True)
    expect("traced run is correct and reports every per-layer metric",
           traced["correct"] and set(traced["metrics"]) == set(run.PER_LAYER_UNITS))

    zero = patched("run_turbo_mp", zero_estimate)
    expect("a zeroed estimate fails the baseline and known-support checks", not zero["correct"])
    flip = patched("run_turbo_mp", flipped_decision)
    expect("a decision that disagrees with the posterior fails every trial",
           flip["failed"] == flip["attempted"] >= 1)
    halved = patched("nmse", halved_score)
    expect("a wrong NMSE figure fails every trial", halved["failed"] == halved["attempted"] >= 1)

    print("selftest:", "FAILED " + "; ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
