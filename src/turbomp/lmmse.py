"""Per-antenna linear MMSE updates and Gaussian message algebra.

The partial orthogonality A A^H = K P I of the pilots makes the observation
covariance diagonal, Sigma = K P v_h + K P v_c D^2 + sigma_w2 per row and
antenna.  A branch of the linear module estimates either the sub-block means
(operator A, row weight w = 1) or the slopes (operator B = D A, w = D) from
the residual r = y - A h_pri - B c_pri.  With one adjoint application

    u = A^H (w r / Sigma)   and   g = (P / Q) sum_i w_i^2 / Sigma_ii,

the posterior of a prior message (x, v) is mean x + v u with variance
v (1 - v g), and dividing the prior back out leaves the extrinsic message in
closed form (the Turbo-CS identity of Ma, Yuan and Ping, IEEE SPL 2015):

    x_ext = x + u / g,   v_ext = 1 / g - v,

one scalar per antenna.  `linear_extrinsic` is that closed form and the
posteriors `lmmse_posterior_h/_c` share its core.  Means may be a single
column (one antenna) or a (n, M) matrix with one variance per antenna; all
functions broadcast over the antenna axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError
from .pilots import PilotCodebook

V_FLOOR = 1e-12
V_MAX = 1e6


@dataclass(frozen=True)
class GaussianMessage:
    """Isotropic complex-Gaussian message: mean vector plus scalar variance.

    mean has shape (n,) with float variance, or (n, M) with an (M,) variance
    vector for antenna-batched use.  Variances are floored at V_FLOOR.
    """

    mean: np.ndarray
    variance: float | np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.complex128)
        var = np.asarray(self.variance, dtype=float)
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(var)):
            raise NumericsError("non-finite Gaussian message")
        if np.any(var < 0):
            raise ParameterError("message variance must be nonnegative")
        var = np.maximum(var, V_FLOOR)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var if var.ndim else float(var))


@dataclass(frozen=True)
class SigmaDiag:
    """Diagonal of the per-antenna observation covariance (length T*N)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ParameterError("covariance diagonal must be positive and finite")
        object.__setattr__(self, "values", values)


def observation_variance(v_h, v_c, sigma_w2: float, codebook: PilotCodebook) -> np.ndarray:
    """K*P*v_h + K*P*v_c*D^2 + sigma_w2: (T*N,) for scalar variances, else (T*N, M)."""
    kp = codebook.K * codebook.power
    d2 = codebook.D_diag**2
    v_h, v_c = np.asarray(v_h, dtype=float), np.asarray(v_c, dtype=float)
    if v_h.ndim == 0:
        return kp * v_h + kp * v_c * d2 + sigma_w2
    return kp * v_h[None, :] + kp * np.outer(d2, v_c) + sigma_w2


def sigma_diag(v_h, v_c, sigma_w2: float, codebook: PilotCodebook) -> SigmaDiag:
    """Validated observation covariance diagonal (see observation_variance)."""
    if sigma_w2 <= 0:
        raise ParameterError(f"noise variance must be positive, got {sigma_w2}")
    if np.any(np.asarray(v_h) < 0) or np.any(np.asarray(v_c) < 0):
        raise ParameterError("prior variances must be nonnegative")
    return SigmaDiag(values=observation_variance(v_h, v_c, sigma_w2, codebook))


def _matched_filter(resid, sigma, weight, codebook):
    """w (broadcastable), z = w r / Sigma, u = A^H z and per-antenna g; weight is 1 or D_diag."""
    w = np.reshape(weight, (-1,) + (1,) * (sigma.ndim - 1))
    z = w * (resid / sigma)
    g = (codebook.power / codebook.Q) * np.sum(w**2 / sigma, axis=0)
    return w, z, codebook.apply_A_adjoint(z), g


def linear_extrinsic(x_pri, v_pri, fwd_pri, resid, sigma, weight, codebook, v_max: float = V_MAX):
    """Extrinsic message (x_ext, v_ext) of one linear branch, its posterior
    variance, and the forward product w A x_ext given fwd_pri = w A x_pri.

    Where 1/g - v reaches v_max the posterior adds nothing to the prior: as in
    `extrinsic`, the variance is clamped to v_max and the posterior mean
    x + v u passes through.  Variances are floored like a GaussianMessage's.
    x_ext = x_pri + c u with one c per antenna, and A A^H = K P I gives
    w A x_ext = fwd_pri + c K P w z without an operator call.
    """
    w, z, u, g = _matched_filter(resid, sigma, weight, codebook)
    v = np.maximum(v_pri, V_FLOOR)
    v_ext = 1.0 / g - v
    informative = v_ext < v_max
    coef = np.where(informative, 1.0 / g, v)  # one per antenna
    v_ext = np.maximum(np.where(informative, v_ext, v_max), V_FLOOR)
    fwd_ext = fwd_pri + (codebook.K * codebook.power * coef) * (w * z)
    return x_pri + coef * u, v_ext, np.maximum(v - v**2 * g, V_FLOOR), fwd_ext


def _posterior(y, msg_h, msg_c, sigma, codebook, msg, weight):
    resid = np.asarray(y, dtype=np.complex128) - codebook.apply_A(msg_h.mean)
    resid = resid - codebook.apply_B(msg_c.mean)
    if not np.all(np.isfinite(resid)):
        raise NumericsError("non-finite residual in linear estimator")
    _, _, u, g = _matched_filter(resid, sigma.values, weight, codebook)
    v = msg.variance
    return GaussianMessage(mean=msg.mean + v * u, variance=np.maximum(v - v**2 * g, 0.0))


def lmmse_posterior_h(y, msg_h: GaussianMessage, msg_c: GaussianMessage, sigma: SigmaDiag,
                      codebook: PilotCodebook) -> GaussianMessage:
    """Posterior belief of the sub-block means given the observation.

    The mean equals the exact joint LMMSE solution restricted to the mean
    coefficients; the scalar variance is the posterior covariance trace
    averaged over all Q*K components, v_h - (P * v_h^2 / Q) * sum_i 1 / Sigma_ii.
    """
    return _posterior(y, msg_h, msg_c, sigma, codebook, msg_h, 1.0)


def lmmse_posterior_c(y, msg_h: GaussianMessage, msg_c: GaussianMessage, sigma: SigmaDiag,
                      codebook: PilotCodebook) -> GaussianMessage:
    """Posterior belief of the sub-block slopes; D^2 weights the variance sum."""
    return _posterior(y, msg_h, msg_c, sigma, codebook, msg_c, codebook.D_diag)


def extrinsic(post: GaussianMessage, pri: GaussianMessage, v_max: float = V_MAX) -> GaussianMessage:
    """Divide the posterior by the incoming prior message.

    v_ext = (1/v_post - 1/v_pri)^-1 and the mean is the matching precision
    difference.  Where the posterior failed to sharpen (v_post >= v_pri) the
    quotient carries no information: the variance is clamped to v_max and the
    posterior mean is passed through unchanged.
    """
    v_post = np.asarray(post.variance, dtype=float)
    v_pri = np.asarray(pri.variance, dtype=float)
    inv_diff = 1.0 / v_post - 1.0 / v_pri
    informative = inv_diff > 1.0 / v_max
    v_ext = np.where(informative, 1.0 / np.maximum(inv_diff, 1.0 / v_max), v_max)
    mean_ext = v_ext * (post.mean / v_post - pri.mean / v_pri)
    if np.ndim(informative) == 0:
        if not informative:
            mean_ext = post.mean.copy()
        v_ext = float(v_ext)
    elif not informative.all():
        mean_ext[..., ~informative] = post.mean[..., ~informative]
    return GaussianMessage(mean=mean_ext, variance=v_ext)


def combine(a: GaussianMessage, b: GaussianMessage) -> GaussianMessage:
    """Precision-weighted fusion of two Gaussian messages."""
    prec = 1.0 / np.asarray(a.variance, dtype=float) + 1.0 / np.asarray(b.variance, dtype=float)
    v = 1.0 / prec
    mean = v * (a.mean / a.variance + b.mean / b.variance)
    return GaussianMessage(mean=mean, variance=v if np.ndim(v) else float(v))
