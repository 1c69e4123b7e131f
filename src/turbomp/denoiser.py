"""Spike-and-slab MMSE denoising of per-device coefficient blocks.

Each device's Q x M block is either all zero (inactive) or i.i.d. complex
Gaussian with variance theta (active).  Given a Gaussian observation of the
block with one noise variance per antenna, the posterior activity weight,
block mean, and elementwise variances are all closed form.  The Gaussian
likelihood ratio is evaluated strictly in the log domain; at realistic
operating points the linear-domain ratio overflows.  The prior on activity
arrives as a rate plus log-odds evidence, so a caller holding another
denoiser's evidence hands it over with no probability round trip.

As in `lmmse`, `bg_denoise_batch` checks none of its inputs: its one caller, the engine,
bounds them.  `lmmse` keeps the variances in [V_FLOOR, V_MAX], `PriorParams` keeps theta > 0
and the rate in (0, 1), and the cross evidence is the other call's NaN-checked log-likelihood
ratio.  The function keeps the two guards that bounded inputs cannot settle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import activity  # through the module: bench's tracer times imported functions apart
from .errors import ParameterError
from .parallel import halves


@dataclass(frozen=True, eq=False)
class DenoiseBatch:
    """Vectorized posteriors for all K devices at once.

    The per-antenna and per-device moments are closed form; the (K, Q, M)
    posterior mean and the per-device energy are built from the input each
    time they are read.  The elementwise posterior variance, which no caller
    needs as a tensor, is lambda_k ((1 - lambda_k) |gain_m pri_kqm|^2 + phi_m)
    with lambda = lambda_post.  Compared by identity (eq=False), as arrays have no truth value.
    """

    pri_mean: np.ndarray  # (K, Q, M) input message, device-contiguous; never copied if given so
    lambda_post: np.ndarray  # (K,)
    evidence: np.ndarray  # (K,) log CN(0; pri, V + theta I) - log CN(0; pri, V), maybe +-inf
    gain: np.ndarray  # (M,) theta / (theta + v); post_mean = lambda_post * gain * pri_mean
    phi: np.ndarray  # (M,) gain * v, the active branch's posterior variance
    column_var: np.ndarray  # (M,) the elementwise variance averaged over devices and sub-blocks
    s: np.ndarray  # (K, M) s_km = sum_q |pri_kqm|^2

    @property
    def energy(self) -> np.ndarray:
        """(K,) sum of |post_mean|^2 + the elementwise variance over sub-blocks and antennas,
        lambda_post (s @ gain^2 + Q sum phi)."""
        return self.lambda_post * (self.s @ self.gain**2 + self.pri_mean.shape[1] * self.phi.sum())

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


def bg_denoise_batch(pri_mean, per_antenna_var, theta, lambda_pri, evidence=0.0) -> DenoiseBatch:
    """Denoise all devices: pri_mean (K, Q, M), one noise variance per antenna (M,).

    The prior on activity has log-odds logit(lambda_pri) + evidence, each a scalar or per
    device.  Prior log-odds of -inf or +inf (a lambda_pri of exactly 0 or 1, or infinite
    evidence) are a certain prior: the posterior is exactly 0 or 1, whatever the data say.
    With evidence 0 the posterior is that of the prior lambda_pri alone.

    Every moment comes from s_km = sum_q |pri_kqm|^2, formed from the float view (interleaved
    re/im values) of the device-contiguous block: one sum over q of the squares, then one add
    of each re/im pair.  A block in that layout, as the engine's are, is read in place; any
    other is copied into it once.  A pri_mean whose s_km is not finite (a non-finite or
    overflowing entry) raises ParameterError instead of returning NaN, as does an undefined
    (inf - inf) log-likelihood ratio; a ratio that overflows gives evidence of -inf or +inf
    and finite moments.  With lambda = lambda_post, the column variance is (gain^2 sum_k
    lambda_k (1 - lambda_k) s_k + phi Q sum_k lambda_k) / (K Q) and the energy is
    lambda_k (sum_m gain_m^2 s_km + Q sum_m phi_m).
    """
    blocks = np.ascontiguousarray(np.asarray(pri_mean, dtype=np.complex128).transpose(1, 2, 0))
    pri = blocks.transpose(2, 0, 1)  # (K, Q, M), device-contiguous: blocks (Q, M, K) is C-ordered
    K, Q, M = pri.shape
    v = per_antenna_var
    gain = theta / (theta + v)  # (M,)
    phi = gain * v  # (M,)
    sums, s = np.empty((M, 2 * K)), np.empty((M, K))  # s.T (C order moves `@ s` by 1 ulp)

    def energies(m):  # per antenna: sum_q of each re and im square, then each pair's sum
        x = blocks[:, m].view(float)  # (Q, antennas, 2K)
        np.einsum("qmj,qmj->mj", x, x, out=sums[m])
        np.add(sums[m, 0::2], sums[m, 1::2], out=s[m])

    halves(energies, M, pri.size)
    s = s.T
    if not np.isfinite(s).all():
        raise ParameterError("pri_mean must be finite, with finite energy sum_q |pri_kqm|^2")

    # log CN(0; pri, V + theta I) - log CN(0; pri, V), accumulated per device
    llr = s @ (theta / (v * (v + theta))) - Q * np.log1p(theta / v).sum()
    if np.isnan(llr).any():
        raise ParameterError("theta and per_antenna_var give an undefined log-likelihood ratio")

    log_odds = activity.logit(lambda_pri) + evidence
    with np.errstate(invalid="ignore"):  # a certain prior keeps its 0 or 1
        lambda_post = np.where(np.isinf(log_odds), log_odds > 0, activity.sigmoid(log_odds + llr))

    column_var = (gain**2 * ((lambda_post * (1.0 - lambda_post)) @ s)
                  + phi * (Q * lambda_post.sum())) / (K * Q)
    return DenoiseBatch(pri_mean=pri, lambda_post=lambda_post, evidence=llr, gain=gain,
                        phi=phi, column_var=column_var, s=s)
