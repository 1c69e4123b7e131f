"""`run_experiment` reproduces the golden trial records written by
tests/golden/make_records.py.

Integers, booleans and strings are equal; floats agree to 1e-12 relative (NaN
where the record has NaN).  Every field but ``wall_s`` is compared.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import turbomp

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_records import CONFIGS, IGNORED, records  # noqa: E402

RTOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN / "records_golden.json").read_text())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_records_match_golden(golden, name):
    assert golden[name]["config"] == CONFIGS[name]
    got, want = records(turbomp, name), golden[name]["records"]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert set(g) == set(w) and not set(IGNORED) & set(w), i
        for key, expected in w.items():
            value = g[key]
            if isinstance(expected, float):
                assert isinstance(value, float), (i, key, value)
                assert (math.isnan(value) and math.isnan(expected)
                        or math.isclose(value, expected, rel_tol=RTOL, abs_tol=0.0)), \
                    (i, key, value, expected)
            else:
                assert type(value) is type(expected) and value == expected, (i, key, value, expected)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_records_hold_when_every_pass_splits(golden, name, monkeypatch):
    """With the size limit at 0 every block pass runs as two halves on two threads, and the
    same records hold."""
    monkeypatch.setattr(turbomp.parallel, "MIN_SIZE", 0)
    test_records_match_golden(golden, name)
