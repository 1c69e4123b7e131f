"""Expectation-maximization updates of the prior parameters.

The four learnable parameters are the active-block coefficient variances
(means and slopes), the effective noise variance, and the activity rate.
The posterior expectations entering the updates are the message products of
the running iteration, not exact posteriors, and arrive as per-device second
moments and the forward products A H_post, B C_post: no update applies an operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .pilots import PilotCodebook

VAR_FLOOR = 1e-12
VAR_CEIL = 1e6
LAMBDA_FLOOR = 1e-6


@dataclass(frozen=True)
class PriorParams:
    """Learnable prior parameters: coefficient variances, noise variance, activity rate."""

    theta_H: float
    theta_C: float
    sigma_w2: float
    lam: float

    def __post_init__(self):
        for name in ("theta_H", "theta_C", "sigma_w2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ParameterError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"lam must be in (0, 1), got {self.lam}")


def em_initial_params(Y: np.ndarray, codebook: PilotCodebook) -> PriorParams:
    """Blind starting point: unit mean variance, small slope variance,
    10% activity, and noise variance set to the average observation power."""
    Y = np.asarray(Y)
    M = Y.shape[1] if Y.ndim == 2 else 1
    power = float(np.sum(np.abs(Y) ** 2)) / (M * codebook.rows)
    return PriorParams(theta_H=1.0, theta_C=1e-3, sigma_w2=max(power, VAR_FLOOR), lam=0.1)


def em_theta(energy, lambda_d_post, size: int, previous: float) -> float:
    """Activity-weighted second moment of one coefficient kind, per coefficient.

    energy[k] is device k's posterior second moment summed over its `size`
    coefficients (sub-blocks times antennas).  Falls back to the previous
    value when the posterior activity mass is zero.
    """
    lam = np.asarray(lambda_d_post, dtype=float)
    weight = lam.sum()
    if weight <= VAR_FLOOR:
        return previous
    value = float(np.dot(lam, energy) / (size * weight))
    return float(np.clip(value, VAR_FLOOR, VAR_CEIL))


def em_sigma_w(
    resid: np.ndarray,
    codebook: PilotCodebook,
    v_h_post=None,
    v_c_post=None,
    include_correction: bool = False,
) -> float:
    """Power per entry of the residual Y - A H_post - B C_post.

    The optional correction adds the posterior-variance trace term; it is off
    by default because it can grow without bound across iterations.
    """
    resid = np.asarray(resid)
    M = resid.shape[1] if resid.ndim == 2 else 1
    value = float(np.vdot(resid, resid).real) / (M * codebook.rows)
    if include_correction:
        if v_h_post is None or v_c_post is None:
            raise ParameterError("correction needs the per-antenna posterior variances")
        d2_mean = float(np.mean(codebook.D_diag**2))
        value += (codebook.K / M) * float(
            np.sum(np.asarray(v_h_post)) + d2_mean * np.sum(np.asarray(v_c_post))
        )
    return float(np.clip(value, VAR_FLOOR, VAR_CEIL))


def em_lambda(lambda_d_post) -> float:
    """Mean posterior activity, kept away from the exact endpoints."""
    lam = np.asarray(lambda_d_post, dtype=float)
    if lam.size < 1:
        raise ParameterError("need at least one device posterior")
    return float(np.clip(lam.mean(), LAMBDA_FLOOR, 1.0 - LAMBDA_FLOOR))


def em_schedule(state, opts) -> PriorParams:
    """One scheduled parameter refresh from the engine state.

    The noise variance is refreshed every iteration; the coefficient
    variances and the activity rate only every opts.em_slow_period
    iterations, since they lean on the approximate posterior activity and
    destabilize the messages when refreshed too eagerly.  opts.em_damping < 1
    blends each refresh with the previous value.
    """
    priors = state.priors
    d = opts.em_damping
    blend = lambda new, old: d * new + (1.0 - d) * old

    den_h, den_c = state.den_h, state.den_c
    sigma_w2 = em_sigma_w(
        state.Y - state.post_fwd_h - state.post_fwd_c,
        state.codebook,
        v_h_post=den_h.column_var,
        v_c_post=den_c.column_var,
        include_correction=opts.em_sigma_correction,
    )
    new = replace(priors, sigma_w2=blend(sigma_w2, priors.sigma_w2))
    if state.iteration % opts.em_slow_period == 0:
        size = den_h.pri_mean[0].size
        new = replace(
            new,
            theta_H=blend(em_theta(den_h.energy, state.lambda_D_post, size, priors.theta_H),
                          priors.theta_H),
            theta_C=blend(em_theta(den_c.energy, state.lambda_D_post, size, priors.theta_C),
                          priors.theta_C),
            lam=blend(em_lambda(state.lambda_D_post), priors.lam),
        )
    return new
