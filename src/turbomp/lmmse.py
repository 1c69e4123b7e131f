"""Per-antenna linear MMSE extrinsic messages of the turbo estimator.

The partial orthogonality A A^H = K P I of the pilots makes the observation covariance
diagonal, Sigma = K P v_h + K P v_c D^2 + sigma_w2 per row and antenna.  Its slope term changes
only with v_c, so the engine forms it once per iteration (`slope_variance`) and each branch
pass adds the rest (`observation_variance`).  A branch of the linear module estimates either
the sub-block means (operator A, row weight w = 1) or the slopes (operator B = D A, w = D) from
the residual r = y - A h_pri - B c_pri.  With one adjoint application

    u = A^H (w r / Sigma)   and   g = (P / Q) sum_i w_i^2 / Sigma_ii,

the posterior of a prior message (x, v) is mean x + v u with variance v (1 - v g), and dividing
the prior back out leaves the extrinsic message in closed form (the Turbo-CS identity of Ma,
Yuan and Ping, IEEE SPL 2015):

    x_ext = x + u / g,   v_ext = 1 / g - v,

one scalar per antenna.  Only this message leaves the module (the posterior is its precision
combination with the prior).  `linear_extrinsic` is that closed form, with the prior mean x
given as its spectrum: since 1 / g is one scalar per antenna, u / g = A^H (z / g) with
z = w r / Sigma, and the pilot adjoint forms x + A^H (z / g) from x's spectrum in one inverse
DFT (see `pilots`), its real factors cast to complex first (numpy would cast them through a
buffer on every call).  `extrinsic` divides any other posterior (the denoisers') by its prior
message.  Both apply the message-variance bounds, which no other module applies.  Means may be
a single column (one antenna), a (n, M) matrix or (K, Q, M) blocks with one variance per
antenna; all functions broadcast over the antenna axis, and `linear_extrinsic` returns x_ext as
the adjoint does: (Q*K,) for a residual vector, else (K, Q, M) blocks.
"""

from __future__ import annotations

import numpy as np

from .pilots import PilotCodebook

V_FLOOR = 1e-12
V_MAX = 1e6


def slope_variance(v_c, codebook: PilotCodebook) -> np.ndarray:
    """Sigma's slope term K*P*v_c*D^2: (T*N,) for a scalar v_c, else (T*N, M)."""
    return codebook.K * codebook.power * np.multiply.outer(codebook.D2_diag, v_c)


def observation_variance(v_h, slope, sigma_w2: float, codebook: PilotCodebook) -> np.ndarray:
    """Sigma = K*P*v_h + slope + sigma_w2, with slope = `slope_variance(v_c)`."""
    return slope + codebook.K * codebook.power * v_h + sigma_w2


def linear_extrinsic(spectrum, v_pri, fwd_pri, resid, sigma, weight, codebook, out=None):
    """Extrinsic message (x_ext, v_ext) of one linear branch and its forward product w A x_ext
    given fwd_pri = w A x_pri.

    spectrum is x_pri's spectrum as `PilotCodebook.apply_A` leaves it, None for x_pri = 0.
    weight broadcasts against sigma: a scalar, a column of one entry per row, or one entry per
    element, which numpy multiplies fastest.  Where 1/g - v reaches V_MAX the posterior adds
    nothing to the prior: as in `extrinsic`, the variance is clamped to V_MAX and the posterior
    mean x + v u passes through.  v_pri and v_ext are floored at V_FLOOR.  x_ext = x_pri +
    A^H (c z) with one c per antenna, formed by the adjoint from spectrum, which it leaves
    unchanged, into out when given (a block as the adjoint takes it, not sharing spectrum's
    memory); A A^H = K P I gives w A x_ext = fwd_pri + c K P w z without an operator call.
    """
    w = np.asarray(weight)
    w_c = w.astype(complex)
    z = resid * (1.0 / sigma).astype(complex)  # resid / sigma as numpy forms it, by 1 / sigma
    z *= w_c
    g = (codebook.power / codebook.Q) * (w**2 / sigma).sum(axis=0)
    v = np.maximum(v_pri, V_FLOOR)
    v_ext = 1.0 / g - v
    informative = v_ext < V_MAX
    coef = np.where(informative, 1.0 / g, v)  # one per antenna
    v_ext = np.maximum(np.where(informative, v_ext, V_MAX), V_FLOOR)
    x_ext = codebook.apply_A_adjoint(z * coef.astype(complex), out=out, spectrum=spectrum)
    z *= w_c  # z's buffer becomes fwd_ext = fwd_pri + c K P w z
    z *= (codebook.K * codebook.power * coef).astype(complex)
    z += fwd_pri
    return x_ext, v_ext, z


def extrinsic(v_post, v_pri):
    """Divide a posterior (x_post, v_post) by its prior message (x_pri, v_pri).

    Returns (v_ext, alpha, beta) with the extrinsic mean
    x_ext = alpha x_post - beta x_pri, where v_ext = (1/v_post - 1/v_pri)^-1,
    alpha = v_ext / v_post and beta = v_ext / v_pri.  Where the posterior
    failed to sharpen by more than 1/V_MAX in precision the quotient carries
    no information: v_ext is clamped to V_MAX, alpha = 1 and beta = 0, so the
    posterior mean passes through.  v_post and, after alpha and beta are
    formed, v_ext are floored at V_FLOOR.
    """
    v_post = np.maximum(v_post, V_FLOOR)
    inv_diff = 1.0 / v_post - 1.0 / v_pri
    informative = inv_diff > 1.0 / V_MAX
    v_ext = np.where(informative, 1.0 / np.maximum(inv_diff, 1.0 / V_MAX), V_MAX)
    alpha = np.where(informative, v_ext / v_post, 1.0)
    beta = np.where(informative, v_ext / v_pri, 0.0)
    return np.maximum(v_ext, V_FLOOR), alpha, beta
