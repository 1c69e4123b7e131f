"""Estimation and detection quality metrics.

Channel error is an aggregate energy ratio: reconstruction error of every
device (which charges false-positive energy to the numerator) over the true
signal energy of the active devices.  Detection rates use the 1/K
normalization, so miss + false-alarm is the total per-device error rate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .activity import detect
from .channel import BlockwiseBasis, ChannelRealization
from .errors import DimensionError, ParameterError


class TrialMetrics(NamedTuple):
    """Detection quality numbers of one set of decisions."""

    p_miss: float
    p_false: float
    pe: float
    miss_count: int
    false_count: int
    num_devices: int


def nmse(
    realization: ChannelRealization,
    H_est: np.ndarray,
    C_est: np.ndarray,
    basis: BlockwiseBasis,
) -> float:
    """Aggregate normalized channel reconstruction error (linear scale).

    numerator: reconstruction error energy summed over all devices;
    denominator: true response energy of the active devices.

    Only the active devices are expanded to N subcarriers, against G_active.
    An inactive device has a zero true response, so its error is the energy of
    its reconstruction, sum over blocks and antennas of
    b|h|^2 + 2 Re(h c*) sum(d) + |c|^2 sum(d^2) for block size b and offsets d.
    """
    g = realization.G_active
    if g.shape[0] == 0:
        raise ParameterError("NMSE undefined without active devices")
    H_est, C_est = np.asarray(H_est), np.asarray(C_est)
    K = realization.activity.size
    _, N, M = g.shape
    if H_est.shape != C_est.shape or H_est.shape != (K * basis.Q, M) or N != basis.N:
        raise DimensionError(f"estimates {H_est.shape}/{C_est.shape} (N={basis.N}) do not "
                             f"fit {K} devices with responses {g.shape}")
    h = H_est.reshape(K, basis.Q, M)
    c = C_est.reshape(K, basis.Q, M)
    active, inactive = realization.active, realization.activity == 0
    recon = basis.expand(h[active].reshape(-1, M), c[active].reshape(-1, M))
    err = float(np.sum(np.abs(g - recon) ** 2))
    # per-device sums over the float views (re/im values), where Re(c* h) is one dot, masked to
    # the inactive devices with no copy of their rows
    hf, cf = (np.ascontiguousarray(x, dtype=np.complex128).view(float).reshape(K, -1)
              for x in (H_est, C_est))
    hh, ch, cc = (np.einsum("kj,kj->k", a, b)[inactive].sum()
                  for a, b in ((hf, hf), (cf, hf), (cf, cf)))
    d = basis.offsets
    err += float(basis.block_size * hh + 2.0 * d.sum() * ch + (d @ d) * cc)
    return err / float(np.sum(np.abs(g) ** 2))


def nmse_db(value: float) -> float:
    return 10.0 * math.log10(max(value, 1e-300))


def detection_metrics(alpha_true: np.ndarray, alpha_hat: np.ndarray) -> TrialMetrics:
    """Miss / false-alarm / total error rates with 1/K normalization."""
    alpha_true = np.asarray(alpha_true).astype(bool)
    alpha_hat = np.asarray(alpha_hat).astype(bool)
    if alpha_true.shape != alpha_hat.shape or alpha_true.ndim != 1:
        raise DimensionError("activity vectors must be 1-d with equal length")
    K = alpha_true.size
    miss = int(np.count_nonzero(alpha_true & ~alpha_hat))
    false = int(np.count_nonzero(~alpha_true & alpha_hat))
    return TrialMetrics(
        p_miss=miss / K,
        p_false=false / K,
        pe=(miss + false) / K,
        miss_count=miss,
        false_count=false,
        num_devices=K,
    )


def check_thresholds(thresholds) -> np.ndarray:
    """Detection thresholds as an array: non-empty, ascending and inside (0, 1)."""
    t = np.asarray(thresholds, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all((t > 0) & (t < 1)) or np.any(np.diff(t) < 0):
        raise ParameterError("thresholds must be a non-empty ascending list inside (0, 1)")
    return t


def roc_sweep(lambda_d_post, alpha_true, thresholds) -> list[TrialMetrics]:
    """Detection metrics at each threshold; p_miss never falls and p_false never rises."""
    return [
        detection_metrics(alpha_true, detect(lambda_d_post, float(thr)))
        for thr in check_thresholds(thresholds)
    ]
