"""Bernoulli evidence fusion and threshold detection of device activity.

All products of activity probabilities are formed as clamped log-odds sums,
which resolves the 0/0 corner cases that exact certainties would create.
A zero net evidence term returns the prior untouched, making the
uninformative identities exact.  `fuse` is that step on unchecked log-odds
evidence, which the engine takes once per denoiser output.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .logodds import logit, sigmoid


def _check_prob(name, p):
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ParameterError(f"{name} must lie in [0, 1]")
    return p


def activity_posterior(pi_b, pi_c, lam):
    """Fuse both denoisers' likelihoods with the prior.

    Returns lam*pi_b*pi_c / (lam*pi_b*pi_c + (1-lam)*(1-pi_b)*(1-pi_c)).
    A neutral pi_c = 0.5 (log-odds exactly 0) gives one denoiser's cross prior
    lam*pi_b / (lam*pi_b + (1-lam)*(1-pi_b)) bit for bit.
    """
    pi_b = _check_prob("pi_b", pi_b)
    pi_c = _check_prob("pi_c", pi_c)
    lam = _check_prob("lam", lam)
    out = fuse(logit(pi_b) + logit(pi_c), lam)
    scalar = not (np.ndim(pi_b) or np.ndim(pi_c) or np.ndim(lam))
    return float(out) if scalar else out


def fuse(evidence, lam):
    """The posterior of log-odds evidence under prior lam: lam itself where it is exactly 0."""
    return np.where(evidence == 0.0, lam, sigmoid(evidence + logit(lam)))


def detect(lambda_d_post, threshold: float) -> np.ndarray:
    """Hard activity decisions: active iff posterior >= threshold (inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")
    post = _check_prob("lambda_d_post", lambda_d_post)
    return (post >= threshold).astype(np.int8)
