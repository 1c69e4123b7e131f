"""Expectation-maximization updates of the prior parameters.

The four learnable parameters are the active-block coefficient variances (means and slopes),
the effective noise variance, and the activity rate.  The coefficient variances are in channel
units; the noise variance is in the observations' pilot-power units, sigma_w2 = P 10^(-SNR/10)
for pilot power P.  The posterior expectations entering the updates are the message products of
the running iteration, not exact posteriors, and arrive as arguments: the denoisers' outputs,
the residual Y - A H_post - B C_post and the slope pass's residual and Sigma, so no update
applies an operator or reads an engine object.  `em_schedule` is the one update step: it alone
decides when the moment and the activity posterior are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .activity import fuse
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
            if not math.isfinite(value) or value <= 0:
                raise ParameterError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"lam must be in (0, 1), got {self.lam}")


def em_initial_params(Y: np.ndarray, codebook: PilotCodebook) -> PriorParams:
    """Blind starting point: unit mean variance, small slope variance,
    10% activity, and noise variance set to the average observation power."""
    Y = np.asarray(Y)
    power = float(np.sum(np.abs(Y) ** 2)) / Y.size
    return PriorParams(theta_H=1.0, theta_C=1e-3,
                       sigma_w2=max(power, VAR_FLOOR * codebook.power), lam=0.1)


def em_schedule(priors, iteration, resid, lin_resid, sigma, den_h, den_c, codebook,
                opts) -> PriorParams:
    """One scheduled parameter refresh from the running iteration's quantities.

    resid is the (T*N, M) residual Y - A H_post - B C_post, lin_resid and sigma the slope
    pass's input residual r and observation variance Sigma, whose moment m = mean(|r|^2 -
    (Sigma - sigma_w2)) only the default noise update forms, and den_h and den_c the last
    mean-block and slope-block denoiser outputs, whose evidence only the slow refreshes fuse
    into the activity posterior of the K >= 1 devices.

    The noise variance is refreshed every iteration.  The residual power s per entry
    underestimates it by the power the posterior means fit, and m falls below zero where
    the message variances overstate the error, so the update is max(m, s).  With
    opts.em_sigma_correction it is instead s plus the trace term (K P / M) sum_m (v_h,m +
    mean(D^2) v_c,m) of the posterior variances, which ignores m and can grow without
    bound.  Like the observations, the noise variance is in pilot-power units: its bounds
    scale with P.

    The coefficient variances (the activity-weighted second moment per coefficient, kept
    when the posterior activity mass is zero) and the activity rate (the mean posterior
    activity, kept off the exact endpoints) are refreshed only every SLOW_PERIOD
    iterations, since they lean on the approximate posterior activity and destabilize
    the messages when refreshed too eagerly.
    """
    P = codebook.power
    sigma_w2 = float(np.vdot(resid, resid).real) / resid.size
    if opts.em_sigma_correction:
        sigma_w2 += (codebook.K * P / resid.shape[1]) * float(
            den_h.column_var.sum() + codebook.D2_mean * den_c.column_var.sum())
    else:
        sigma_w2 = max(sigma_w2, float(np.vdot(lin_resid, lin_resid).real / lin_resid.size
                                       - sigma.mean() + priors.sigma_w2))
    sigma_w2 = min(max(sigma_w2, VAR_FLOOR * P), VAR_CEIL * P)  # a NaN passes, as through clip
    if iteration % SLOW_PERIOD:
        return replace(priors, sigma_w2=sigma_w2)
    lam = fuse(priors.lam, den_h.evidence, den_c.evidence)
    weight, size = lam.sum(), den_h.pri_mean[0].size

    def theta(den, previous):
        if weight <= VAR_FLOOR:  # not taken for a NaN mass, which PriorParams rejects
            return previous
        return float(min(max(np.dot(lam, den.energy) / (size * weight), VAR_FLOOR), VAR_CEIL))

    return replace(priors, sigma_w2=sigma_w2, theta_H=theta(den_h, priors.theta_H),
                   theta_C=theta(den_c, priors.theta_C),
                   lam=float(min(max(lam.mean(), LAMBDA_FLOOR), 1.0 - LAMBDA_FLOOR)))
