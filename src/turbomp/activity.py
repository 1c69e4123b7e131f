"""Activity log-odds: probability conversions, Bernoulli evidence fusion and detection.

Activity evidence is a log-likelihood ratio (log-odds), which each denoiser reports as
`DenoiseBatch.evidence` and may be -inf or +inf where it is certain.  `logit` and `sigmoid`
convert between probabilities and log-odds, exactly at the endpoints; `fuse` adds a prior's
log-odds to two such terms and returns the posterior activity; evidence that cancels returns
the prior untouched, which makes the uninformative identities exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


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


def fuse(lam, e_a, e_b):
    """Posterior activity sigmoid(logit(lam) + e_a + e_b) of log-odds evidence under prior lam.

    Where the evidence cancels, e_a == -e_b, the result is lam itself, bit for bit: for zero
    evidence and for opposing certainties alike.  One denoiser certain that a device is active
    (+inf) and the other certain that it is not (-inf) is zero net evidence.  A NaN term gives
    NaN, which the next denoiser's prior check or `detect` rejects.  lam lies in (0, 1).
    """
    with np.errstate(invalid="ignore"):  # inf - inf, where the result is lam
        return np.where(e_a == -e_b, lam, sigmoid(e_a + e_b + logit(lam)))


def detect(lambda_d_post, threshold: float) -> np.ndarray:
    """Hard activity decisions: active iff posterior >= threshold (inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")
    post = np.asarray(lambda_d_post, dtype=float)
    if not np.all((post >= 0) & (post <= 1)):  # NaN fails both comparisons
        raise ParameterError("lambda_d_post must lie in [0, 1]")
    return (post >= threshold).astype(np.int8)
