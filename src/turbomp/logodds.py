"""Numerically safe probability/log-odds conversions shared by the modules."""

from __future__ import annotations

import numpy as np

LOG_ODDS_CLAMP = 40.0


def sigmoid(x):
    """Stable logistic function, exact at +/-inf: 1/(1 + e^-x) for x >= 0 and
    e^x/(1 + e^x) below, both written with e = exp(-|x|)."""
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def logit(p):
    """log(p / (1-p)) with the result clipped to [-LOG_ODDS_CLAMP, LOG_ODDS_CLAMP].

    The clip resolves the 0/0 forms that exact-zero or exact-one
    probabilities would otherwise produce downstream.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.clip(np.log(p) - np.log1p(-p), -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP)
    return out if out.ndim else float(out)
