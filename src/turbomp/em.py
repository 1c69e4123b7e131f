"""Expectation-maximization updates of the prior parameters.

The four learnable parameters are the active-block coefficient variances
(means and slopes), the effective noise variance, and the activity rate.
The posterior expectations entering the updates are the message products of
the running iteration, not exact posteriors, and arrive as arguments: per-device
second moments and the residual Y - A H_post - B C_post, so no update applies an
operator or reads an engine object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .pilots import PilotCodebook

VAR_FLOOR = 1e-12
VAR_CEIL = 1e6
LAMBDA_FLOOR = 1e-6
SLOW_PERIOD = 3  # iterations between refreshes of the coefficient variances and activity rate


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
    moment: float | None = None,
) -> float:
    """Noise variance from the power s per entry of the residual Y - A H_post - B C_post.

    s underestimates the noise by the power the posterior means fit.  Given the moment
    estimate m = mean(|r|^2 - (Sigma - sigma_w2)) of a linear branch's input r, which
    falls below zero where the message variances overstate the error, the update is
    max(m, s).  The optional correction adds the posterior-variance trace term to s
    instead and ignores m; it is off by default because it can grow without bound.
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
    elif moment is not None:
        value = max(value, moment)
    return float(np.clip(value, VAR_FLOOR, VAR_CEIL))


def em_lambda(lambda_d_post) -> float:
    """Mean posterior activity, kept away from the exact endpoints."""
    lam = np.asarray(lambda_d_post, dtype=float)
    if lam.size < 1:
        raise ParameterError("need at least one device posterior")
    return float(np.clip(lam.mean(), LAMBDA_FLOOR, 1.0 - LAMBDA_FLOOR))


def em_schedule(priors, iteration, resid, moment, den_h, den_c, lambda_d_post, codebook,
                opts) -> PriorParams:
    """One scheduled parameter refresh from the running iteration's quantities.

    resid is Y - A H_post - B C_post, moment the moment estimate m of `em_sigma_w`,
    den_h and den_c the last mean-block and slope-block denoiser outputs and
    lambda_d_post the fused activity posterior.
    The noise variance is refreshed every iteration; the coefficient
    variances and the activity rate only every SLOW_PERIOD iterations, since
    they lean on the approximate posterior activity and destabilize the
    messages when refreshed too eagerly.
    """
    sigma_w2 = em_sigma_w(resid, codebook, v_h_post=den_h.column_var, v_c_post=den_c.column_var,
                          include_correction=opts.em_sigma_correction, moment=moment)
    if iteration % SLOW_PERIOD:
        return replace(priors, sigma_w2=sigma_w2)
    size = den_h.pri_mean[0].size
    return replace(
        priors,
        sigma_w2=sigma_w2,
        theta_H=em_theta(den_h.energy, lambda_d_post, size, priors.theta_H),
        theta_C=em_theta(den_c.energy, lambda_d_post, size, priors.theta_C),
        lam=em_lambda(lambda_d_post),
    )
