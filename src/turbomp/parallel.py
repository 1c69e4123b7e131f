"""Two halves of a frame's block passes, run on two threads.

`halves(fn, n, size)` runs fn(slice(n // 2, n)) on a helper thread and fn(slice(0, n // 2)) on
the caller, then joins; it runs fn(slice(0, n)) alone for a pass of fewer than MIN_SIZE
elements, for n < 2, on one CPU, and after `disable()`, the harness's pool initializer (pool
workers fill the CPUs).  fn computes each element alike in either half, so outputs are bitwise
independent of the split.  On the helper thread fn runs numpy and local closures only, never a
turbomp layer's callable, and allocates no block-sized temporary, only row-sized ones or
in-place and out= passes: that thread's malloc arena keeps what it frees, and block-sized
temporaries there raised the peak RSS of K=16000 frames by 5-7.5%.  The helper starts at the
first split and stops before each fork, so importing starts no thread.

MIN_SIZE is the crossover measured by `tools/split_sweep.py` (multipath frames, M=8, Q=4, 10
iterations; frame time split over unsplit, median of 5 alternating pairs, 2-vCPU host):

    K                  1000    2000    4000    8000   16000
    (K, Q, M) size    32000   64000  128000  256000  512000
    split / unsplit    1.36    1.18    0.82    0.84    0.65
"""

import os
from concurrent.futures import ThreadPoolExecutor

MIN_SIZE = 100_000  # elements of a (K, Q, M) block
_enabled, _helper = True, None


def cpus() -> int:
    """The number of CPUs this process may use."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def disable() -> None:
    """Run every later pass of this process whole."""
    global _enabled
    _enabled = False


def _stop_helper() -> None:
    global _helper
    if _helper is not None:
        _helper.shutdown()
        _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_helper)


def halves(fn, n: int, size: int) -> None:
    """fn(slice(0, n)), run as two halves on two threads when the pass is large enough."""
    global _helper
    if n < 2 or size < MIN_SIZE or not _enabled or cpus() < 2:
        return fn(slice(0, n))
    _helper = _helper or ThreadPoolExecutor(1, thread_name_prefix="turbomp-half")
    upper = _helper.submit(fn, slice(n // 2, n))
    try:
        fn(slice(0, n // 2))
    finally:
        upper.result()
