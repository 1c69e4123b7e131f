"""Spike-and-slab MMSE denoising of per-device coefficient blocks.

Each device's Q x M block is either all zero (inactive) or i.i.d. complex
Gaussian with variance theta (active).  Given a Gaussian observation of the
block with one noise variance per antenna, the posterior activity weight,
block mean, and elementwise variances are all closed form.  The Gaussian
likelihood ratio is evaluated strictly in the log domain; at realistic
operating points the linear-domain ratio overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .logodds import sigmoid
from .parallel import halves


@dataclass(frozen=True)
class DenoiseBatch:
    """Vectorized posteriors for all K devices at once.

    The per-antenna and per-device moments are closed form; the (K, Q, M)
    posterior tensors are built from the input each time they are read.
    """

    pri_mean: np.ndarray  # (K, Q, M) input message, in any memory layout and never copied
    lambda_post: np.ndarray  # (K,)
    pi: np.ndarray  # (K,)
    gain: np.ndarray  # (M,) theta / (theta + v); post_mean = lambda_post * gain * pri_mean
    phi: np.ndarray  # (M,) gain * v, the active branch's posterior variance
    column_var: np.ndarray  # (M,) average of post_var_elem over devices and sub-blocks
    energy: np.ndarray  # (K,) sum of |post_mean|^2 + post_var_elem over sub-blocks and antennas

    @property
    def post_mean(self) -> np.ndarray:
        return self.lambda_post[:, None, None] * (self.pri_mean * self.gain)

    @property
    def post_var_elem(self) -> np.ndarray:
        lp = self.lambda_post[:, None, None]
        mu = self.pri_mean * self.gain
        post_var = lp * ((1.0 - lp) * (mu.real**2 + mu.imag**2) + self.phi)
        return np.maximum(post_var, 0.0, out=post_var)


def bg_denoise_batch(
    pri_mean: np.ndarray,
    per_antenna_var: np.ndarray,
    theta: float,
    lambda_pri: np.ndarray,
) -> DenoiseBatch:
    """Denoise all devices: pri_mean (K, Q, M), noise variance per antenna.

    lambda_pri may be scalar or per device.  Exact zeros and ones in
    lambda_pri short-circuit to certainly-inactive / certainly-active
    posteriors without evaluating the prior odds.  Every moment comes from
    s_km = sum_q |pri_kqm|^2: with lambda = lambda_post, the column variance
    is (gain^2 sum_k lambda_k (1 - lambda_k) s_k + phi Q sum_k lambda_k) / (K Q)
    and the energy is lambda_k (sum_m gain_m^2 s_km + Q sum_m phi_m).
    """
    pri = np.asarray(pri_mean, dtype=np.complex128)
    if pri.ndim != 3:
        raise ParameterError(f"pri_mean must be (K, Q, M), got shape {pri.shape}")
    K, Q, M = pri.shape
    v = np.asarray(per_antenna_var, dtype=float)
    if v.shape != (M,) or not np.all((v > 0) & (v < np.inf)):  # also false for NaN
        raise ParameterError("per_antenna_var must be positive and finite with length M")
    if not 0 < theta < np.inf:
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    lam = np.broadcast_to(np.asarray(lambda_pri, dtype=float), (K,))
    if not np.all((lam >= 0) & (lam <= 1)):
        raise ParameterError("lambda_pri must lie in [0, 1]")

    gain = theta / (theta + v)  # (M,)
    phi = gain * v  # (M,)
    s = np.zeros((3, M, K))  # s.T (einsum's layout: C order moves `@ s` by 1 ulp), 2 scratch rows

    def energies(m):  # s_km summed over q in order
        for rows in pri.transpose(1, 2, 0)[:, m]:
            re2, im2 = np.square(rows.real, out=s[1, m]), np.square(rows.imag, out=s[2, m])
            s[0, m] += np.add(re2, im2, out=re2)

    halves(energies, M, pri.size)
    s = s[0].T

    # log CN(0; pri, V) - log CN(0; pri, V + theta I), accumulated per device
    log_ratio = Q * np.sum(np.log1p(theta / v)) - s @ (theta / (v * (v + theta)))

    interior = (lam > 0) & (lam < 1)
    lambda_post = lam.astype(float).copy()  # endpoints carry through exactly
    if np.any(interior):
        prior_odds = np.log(lam[interior]) - np.log1p(-lam[interior])
        lambda_post[interior] = sigmoid(prior_odds - log_ratio[interior])
    pi = sigmoid(-log_ratio)

    gain2 = gain**2
    column_var = (gain2 * ((lambda_post * (1.0 - lambda_post)) @ s)
                  + phi * (Q * lambda_post.sum())) / (K * Q)
    energy = lambda_post * (s @ gain2 + Q * phi.sum())
    return DenoiseBatch(pri_mean=pri, lambda_post=lambda_post, pi=pi, gain=gain, phi=phi,
                        column_var=column_var, energy=energy)
