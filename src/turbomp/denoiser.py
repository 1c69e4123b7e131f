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
from .logodds import logit, sigmoid
from .parallel import halves


@dataclass(frozen=True)
class DenoiseBatch:
    """Vectorized posteriors for all K devices at once.

    The per-antenna and per-device moments are closed form; the (K, Q, M)
    posterior tensors are built from the input each time they are read.
    """

    pri_mean: np.ndarray  # (K, Q, M) input message, in any memory layout and never copied
    lambda_post: np.ndarray  # (K,)
    evidence: np.ndarray  # (K,) log CN(0; pri, V + theta I) - log CN(0; pri, V), maybe +-inf
    gain: np.ndarray  # (M,) theta / (theta + v); post_mean = lambda_post * gain * pri_mean
    phi: np.ndarray  # (M,) gain * v, the active branch's posterior variance
    column_var: np.ndarray  # (M,) average of post_var_elem over devices and sub-blocks
    energy: np.ndarray  # (K,) sum of |post_mean|^2 + post_var_elem over sub-blocks and antennas

    @property
    def post_mean(self) -> np.ndarray:
        """lambda_post * gain * pri_mean, a C-ordered (K, Q, M) array built in two passes, split
        over devices as `parallel.halves` splits a block pass."""
        out = np.empty(self.pri_mean.shape, dtype=complex)
        lam = self.lambda_post[:, None, None]

        def devices(k):
            np.multiply(self.pri_mean[k], self.gain, out=out[k])
            np.multiply(out[k], lam[k], out=out[k])

        halves(devices, len(out), out.size)
        return out

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

    lambda_pri may be scalar or per device; priors of exactly 0 and 1 give
    exactly 0 and 1, whatever the evidence.  Every moment comes from
    s_km = sum_q |pri_kqm|^2, so a pri_mean with a non-finite or overflowing
    entry, whose s_km is not finite, raises ParameterError instead of
    returning NaN, as does an undefined (inf - inf) log-likelihood ratio; a
    ratio that overflows gives evidence of -inf or +inf and finite moments.
    With lambda = lambda_post, the column variance is (gain^2 sum_k lambda_k
    (1 - lambda_k) s_k + phi Q sum_k lambda_k) / (K Q) and the energy is
    lambda_k (sum_m gain_m^2 s_km + Q sum_m phi_m).
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
    if not np.all((lam >= 0) & (lam <= 1)):  # NaN fails both comparisons
        raise ParameterError("lambda_pri must lie in [0, 1]")

    gain = theta / (theta + v)  # (M,)
    phi = gain * v  # (M,)
    s = np.empty((3, M, K))  # s.T (einsum's layout: C order moves `@ s` by 1 ulp), 2 scratch rows
    s[0] = 0  # the accumulator; np.square writes the scratch rows before they are read

    def energies(m):  # s_km summed over q in order
        for rows in pri.transpose(1, 2, 0)[:, m]:
            re2, im2 = np.square(rows.real, out=s[1, m]), np.square(rows.imag, out=s[2, m])
            s[0, m] += np.add(re2, im2, out=re2)

    halves(energies, M, pri.size)
    s = s[0].T
    if not np.isfinite(s).all():
        raise ParameterError("pri_mean must be finite, with finite energy sum_q |pri_kqm|^2")

    # log CN(0; pri, V + theta I) - log CN(0; pri, V), accumulated per device
    evidence = s @ (theta / (v * (v + theta))) - Q * np.sum(np.log1p(theta / v))
    if np.isnan(evidence).any():
        raise ParameterError("theta and per_antenna_var give an undefined log-likelihood ratio")

    log_odds = logit(lam)  # -inf and +inf at the endpoint priors, which the posterior keeps
    with np.errstate(invalid="ignore"):
        lambda_post = np.where(np.isinf(log_odds), lam, sigmoid(log_odds + evidence))

    gain2 = gain**2
    column_var = (gain2 * ((lambda_post * (1.0 - lambda_post)) @ s)
                  + phi * (Q * lambda_post.sum())) / (K * Q)
    energy = lambda_post * (s @ gain2 + Q * phi.sum())
    return DenoiseBatch(pri_mean=pri, lambda_post=lambda_post, evidence=evidence, gain=gain,
                        phi=phi, column_var=column_var, energy=energy)
