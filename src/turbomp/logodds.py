"""Probability/log-odds conversions shared by the modules, exact at the endpoints."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Stable logistic function, exact at +/-inf: 1/(1 + e^-x) for x >= 0 and
    e^x/(1 + e^x) below, both written with e = exp(-|x|)."""
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def logit(p):
    """log(p / (1-p)): -inf at p = 0 and +inf at p = 1."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)
