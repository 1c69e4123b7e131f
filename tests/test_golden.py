"""The engine reproduces the golden record written by tests/golden/make_golden.py.

The record holds the inputs and outputs of six frames run by the engine
before the closed-form linear extrinsic and the cached forward products
(``multipath_60db`` was recomputed when the default EM noise update changed,
and the clamp counts of ``vmax_clamped`` when they began to count the
messages clamped at ``turbomp.lmmse.V_MAX``, the one clamp that ``replay``
sets for ``vmax_clamped``; see make_golden.py).
Learned priors and the per-row traces agree to 1e-10 relative, entry by
entry.  So do the estimates and activity posteriors, except that entries far
below an array's largest one are held to 1e-10 of that largest entry.
Iteration counts, the stop flag and clamp events are equal.
``rel_change`` is a difference quotient of nearly equal messages: rounding
of the messages at 1e-12 relative moves it by about 1e-12 absolute, so it is
held to 1e-6 relative plus 1e-10 absolute.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import turbomp

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_golden import CASES, ROW_FIELDS, replay  # noqa: E402

RTOL = 1e-10
REL_CHANGE_RTOL, REL_CHANGE_ATOL = 1e-6, 1e-10


@pytest.fixture(scope="module")
def record():
    with np.load(GOLDEN / "engine_golden.npz") as data:
        return {key: data[key] for key in data.files}


def _close_array(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * np.max(np.abs(expected)))


@pytest.mark.parametrize("case", list(CASES))
def test_engine_matches_golden_record(record, case):
    doc = {key.split("__", 1)[1]: value for key, value in record.items()
           if key.startswith(case + "__")}
    result = replay(turbomp, doc)
    K, Q = int(doc["dims"][0]), int(doc["dims"][3])
    M = result.H.shape[1]
    devices = doc["devices"]

    _close_array(result.H.reshape(K, Q * M)[devices], doc["H"])
    _close_array(result.C.reshape(K, Q * M)[devices], doc["C"])
    _close_array(result.lambda_D_post, doc["lambda_D_post"])
    norms = [np.sum(np.abs(result.H) ** 2), np.sum(np.abs(result.C) ** 2)]
    np.testing.assert_allclose(norms, [doc["H_norm2"], doc["C_norm2"]], rtol=RTOL)
    p = result.priors
    np.testing.assert_allclose([p.theta_H, p.theta_C, p.sigma_w2, p.lam], doc["priors_out"], rtol=RTOL)

    assert result.iterations == int(doc["iterations"])
    assert result.converged == bool(doc["converged"])
    assert result.diagnostics.clamp_events == int(doc["clamp_events"])

    rows = result.diagnostics.rows
    for name in ROW_FIELDS:
        got = np.array([np.nan if r[name] is None else r[name] for r in rows], dtype=float)
        want = doc[f"rows_{name}"]
        if name == "clamp_events":
            np.testing.assert_array_equal(got, want)
        elif name == "rel_change":
            np.testing.assert_allclose(got, want, rtol=REL_CHANGE_RTOL, atol=REL_CHANGE_ATOL)
        else:
            np.testing.assert_allclose(got, want, rtol=RTOL, err_msg=name)


@pytest.mark.parametrize("case", list(CASES))
def test_golden_record_holds_when_every_pass_splits(record, case, monkeypatch):
    """With the size limit at 0 every block pass of these small frames runs as two halves
    on two threads, and the same record holds."""
    monkeypatch.setattr(turbomp.parallel, "MIN_SIZE", 0)
    test_engine_matches_golden_record(record, case)
