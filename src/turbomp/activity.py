"""Bernoulli evidence fusion and threshold detection of device activity.

All products of activity probabilities are formed as clamped log-odds sums,
which resolves the 0/0 corner cases that exact certainties would create.
A zero net evidence term returns the prior untouched, making the
uninformative identities exact.
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


def cross_prior(pi_other, lam):
    """Blend one denoiser's activity likelihood with the Bernoulli prior.

    Returns lam*pi / (lam*pi + (1-lam)*(1-pi)) elementwise.
    """
    pi_other = _check_prob("pi", pi_other)
    lam = _check_prob("lam", lam)
    evidence = logit(pi_other)
    out = np.where(evidence == 0.0, lam, sigmoid(evidence + logit(lam)))
    return out if np.ndim(pi_other) or np.ndim(lam) else float(out)


def activity_posterior(pi_b, pi_c, lam):
    """Fuse both denoisers' likelihoods with the prior.

    Returns lam*pi_b*pi_c / (lam*pi_b*pi_c + (1-lam)*(1-pi_b)*(1-pi_c)).
    """
    pi_b = _check_prob("pi_b", pi_b)
    pi_c = _check_prob("pi_c", pi_c)
    lam = _check_prob("lam", lam)
    evidence = logit(pi_b) + logit(pi_c)
    out = np.where(evidence == 0.0, lam, sigmoid(evidence + logit(lam)))
    scalar = not (np.ndim(pi_b) or np.ndim(pi_c) or np.ndim(lam))
    return float(out) if scalar else out


def detect(lambda_d_post, threshold: float) -> np.ndarray:
    """Hard activity decisions: active iff posterior >= threshold (inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")
    post = _check_prob("lambda_d_post", lambda_d_post)
    return (post >= threshold).astype(np.int8)
