"""Per-antenna linear MMSE extrinsic messages of the turbo estimator.

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

one scalar per antenna.  `linear_extrinsic` is that closed form; `extrinsic`
divides any other posterior (the denoisers') by its prior message.  Means may
be a single column (one antenna), a (n, M) matrix or (K, Q, M) blocks with
one variance per antenna; all functions broadcast over the antenna axis, and
`linear_extrinsic` returns x_ext in x_pri's shape.
"""

from __future__ import annotations

import numpy as np

from .parallel import halves
from .pilots import PilotCodebook

V_FLOOR = 1e-12
V_MAX = 1e6


def observation_variance(v_h, v_c, sigma_w2: float, codebook: PilotCodebook) -> np.ndarray:
    """K*P*v_h + K*P*v_c*D^2 + sigma_w2: (T*N,) for scalar variances, else (T*N, M)."""
    kp = codebook.K * codebook.power
    d2 = codebook.D_diag**2
    return kp * v_h + kp * np.multiply.outer(d2, v_c) + sigma_w2


def linear_extrinsic(x_pri, v_pri, fwd_pri, resid, sigma, weight, codebook, v_max: float = V_MAX):
    """Extrinsic message (x_ext, v_ext) of one linear branch, its posterior
    variance, and the forward product w A x_ext given fwd_pri = w A x_pri.

    weight is 1 or D_diag.  Where 1/g - v reaches v_max the posterior adds
    nothing to the prior: as in `extrinsic`, the variance is clamped to v_max
    and the posterior mean x + v u passes through.  Variances are floored at
    V_FLOOR.  x_ext = x_pri + c u with one c per antenna, and A A^H = K P I
    gives w A x_ext = fwd_pri + c K P w z without an operator call.
    """
    w = np.reshape(weight, (-1,) + (1,) * (sigma.ndim - 1))
    z = w * (resid / sigma)
    g = (codebook.power / codebook.Q) * np.sum(w**2 / sigma, axis=0)
    v = np.maximum(v_pri, V_FLOOR)
    v_ext = 1.0 / g - v
    informative = v_ext < v_max
    coef = np.where(informative, 1.0 / g, v)  # one per antenna
    v_ext = np.maximum(np.where(informative, v_ext, v_max), V_FLOOR)
    fwd_ext = fwd_pri + (codebook.K * codebook.power * coef) * (w * z)
    x_ext = codebook.apply_A_adjoint(z).reshape(np.shape(x_pri))  # a new array, updated in place
    c = np.broadcast_to(coef, x_ext.shape[-1:])  # x_ext = c x_ext + x_pri, per antenna
    halves(lambda m: np.add(np.multiply(x_ext[..., m], c[m], out=x_ext[..., m]), x_pri[..., m],
                            out=x_ext[..., m]), c.size, x_ext.size)
    return x_ext, v_ext, np.maximum(v - v**2 * g, V_FLOOR), fwd_ext


def extrinsic(v_post, v_pri, v_max: float = V_MAX):
    """Divide a posterior (x_post, v_post) by its prior message (x_pri, v_pri).

    Returns (v_ext, alpha, beta) with the extrinsic mean
    x_ext = alpha x_post - beta x_pri, where v_ext = (1/v_post - 1/v_pri)^-1,
    alpha = v_ext / v_post and beta = v_ext / v_pri.  Where the posterior
    failed to sharpen by more than 1/v_max in precision the quotient carries
    no information: v_ext is clamped to v_max, alpha = 1 and beta = 0, so the
    posterior mean passes through unchanged.
    """
    inv_diff = 1.0 / v_post - 1.0 / v_pri
    informative = inv_diff > 1.0 / v_max
    v_ext = np.where(informative, 1.0 / np.maximum(inv_diff, 1.0 / v_max), v_max)
    alpha = np.where(informative, v_ext / v_post, 1.0)
    beta = np.where(informative, v_ext / v_pri, 0.0)
    return v_ext, alpha, beta
