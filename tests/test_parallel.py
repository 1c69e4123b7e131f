"""Two-thread halves of the block passes: when they split, that a split changes no output,
and that a helper thread started in a process never reaches a forked pool worker; and that
pool workers run numpy's OpenBLAS on one thread."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import turbomp
from turbomp import harness, parallel
from turbomp.channel import example_pdp_path

SRC = str(Path(turbomp.__file__).resolve().parent.parent)
two_cpus = pytest.mark.skipif(parallel.cpus() < 2, reason="a process with one CPU never splits")


def run_python(code: str, timeout: float = 300, pin_blas: bool = True) -> str:
    """Run `code` in a fresh interpreter that imports this turbomp, with OpenBLAS pinned to
    one thread through its environment unless `pin_blas` is false; return its stdout."""
    env = {"PYTHONPATH": SRC, **({"OPENBLAS_NUM_THREADS": "1"} if pin_blas else {})}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=timeout, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def calls(n, size):
    seen = []
    parallel.halves(lambda s: seen.append((s, threading.get_ident())), n, size)
    return seen


class TestHalves:
    @pytest.fixture(autouse=True)
    def split_enabled_on_two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "_enabled", True)
        monkeypatch.setattr(parallel, "cpus", lambda: 2)

    def test_a_large_pass_runs_as_two_halves_on_two_threads(self):
        seen = calls(5, parallel.MIN_SIZE)
        assert sorted(s for s, _ in seen) == [slice(0, 2), slice(2, 5)]
        assert {t for s, t in seen if s == slice(0, 2)} == {threading.get_ident()}
        assert len({t for _, t in seen}) == 2

    def test_a_pass_runs_whole_on_the_caller_where_it_does_not_split(self, monkeypatch):
        monkeypatch.setattr(parallel, "_openblas", lambda: None)  # keep this process's BLAS
        whole = [(slice(0, 5), threading.get_ident())]
        assert calls(5, parallel.MIN_SIZE - 1) == whole  # small block
        assert calls(1, parallel.MIN_SIZE)[0][0] == slice(0, 1)  # nothing to halve
        monkeypatch.setattr(parallel, "cpus", lambda: 1)
        assert calls(5, parallel.MIN_SIZE) == whole
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        parallel.disable()  # as in a pool worker
        assert calls(5, parallel.MIN_SIZE) == whole

    def test_the_helper_half_raises_in_the_caller_after_both_halves_ran(self):
        done = []

        def fn(s):
            done.append(s)
            if s.start > 0:
                raise ValueError("upper half")

        with pytest.raises(ValueError, match="upper half"):
            parallel.halves(fn, 4, parallel.MIN_SIZE)
        assert sorted(done, key=lambda s: s.start) == [slice(0, 2), slice(2, 4)]


def test_importing_turbomp_starts_no_thread():
    out = run_python("import threading, turbomp, turbomp.parallel as p\n"
                     "print(threading.active_count(), p._helper)")
    assert out.split() == ["1", "None"]


@two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_fork_after_a_split_gets_a_working_helper():
    """The helper is stopped before a fork, so a child of a process that has split a pass
    splits again with a helper of its own, and the parent too; neither waits forever."""
    code = """
import os, threading, turbomp.parallel as p
p.MIN_SIZE = 0
run = lambda: p.halves(lambda s: None, 2, 1)
run()
assert p._helper is not None
pid = os.fork()
if pid == 0:
    run()
    os._exit(0 if p._helper is not None and threading.active_count() == 2 else 1)
_, status = os.waitpid(pid, 0)
run()
print(os.waitstatus_to_exitcode(status), threading.active_count())
"""
    assert run_python(code, timeout=60).split() == ["0", "2"]


@two_cpus
def test_a_pool_after_a_split_frame_gives_the_serial_records():
    """A process that has split a frame's passes then runs trials on a two-worker pool: the
    pool finishes and its records equal the one-worker records."""
    code = f"""
import json, turbomp, turbomp.parallel as p
p.MIN_SIZE = 0
doc = dict(K=200, N=72, T=2, Q=4, M=4, snr_db=[0.0], lam=0.05, trials=4, max_iters=5,
           pdp_file={example_pdp_path()!r}, master_seed=3)
records = lambda workers: [{{k: v for k, v in r.items() if k != "wall_s"}}
    for r in turbomp.run_experiment(
        turbomp.ExperimentConfig(**doc, workers=workers)).points[0].trials]
serial = records(1)
assert p._helper is not None
print(json.dumps(records(2) == serial))
"""
    assert run_python(code).strip() == "true"


def test_a_large_frame_is_bitwise_the_same_split_or_not(monkeypatch):
    """A K=16000 multipath frame, every pass split against none split: equal estimates,
    posteriors, decisions, iteration counts and diagnostics rows."""
    config = turbomp.ExperimentConfig(
        K=16000, N=72, T=8, Q=4, M=8, lam=50 / 16000, snr_db=[-15.0], trials=1,
        pdp_file=example_pdp_path(), em_sigma_correction=True, max_iters=15, master_seed=7)
    results = []
    for size in (0, np.inf):
        monkeypatch.setattr(parallel, "MIN_SIZE", size)
        results.append(harness._run_trial(config, 0, -15.0, 0)[2])
    split, whole = results
    for name in ("H", "C", "lambda_D_post", "activity"):
        assert np.array_equal(getattr(split, name), getattr(whole, name)), name
    assert split.iterations == whole.iterations and split.converged == whole.converged
    assert split.priors == whole.priors
    assert split.diagnostics == whole.diagnostics


@pytest.mark.skipif(parallel._openblas() is None, reason="numpy bundles no OpenBLAS here")
def test_pool_workers_run_openblas_on_one_thread():
    """With OpenBLAS unpinned in the environment, the workers of the harness's pool read one
    BLAS thread while their parent keeps its own count, and their records equal the records of
    the parent run alone."""
    code = f"""
import json, turbomp
from turbomp import harness, parallel as p
def threads(_=None):
    return p._openblas().scipy_openblas_get_num_threads64_()
doc = dict(K=200, N=72, T=2, Q=4, M=4, snr_db=[0.0], lam=0.05, trials=4, max_iters=5,
           pdp_file={example_pdp_path()!r}, master_seed=3)
records = lambda workers: [{{k: v for k, v in r.items() if k != "wall_s"}}
    for r in turbomp.run_experiment(
        turbomp.ExperimentConfig(**doc, workers=workers)).points[0].trials]
parent = threads()
with harness._mapper(2) as mapper:
    workers = sorted(set(mapper(threads, range(4))))
print(json.dumps([parent == threads(), workers, records(2) == records(1)]))
"""
    assert json.loads(run_python(code, pin_blas=False)) == [True, [1], True]
