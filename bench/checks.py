"""Output checks computed apart from the program.

Every figure here is rebuilt from the raw truth and estimate with plain numpy:
the block-wise expansion, the least-squares fit of each sub-block, and a
dense known-support LMMSE built from the pilot symbols of the active devices.
None of it calls the program's metrics, basis or dense operators.
"""

from __future__ import annotations

import math

import numpy as np

NMSE_RTOL = 1e-9


def offsets(N: int, Q: int) -> np.ndarray:
    """Slope regressor inside one sub-block: d = [-b/2+1, ..., b/2], b = N/Q."""
    b = N // Q
    return np.arange(1, b + 1, dtype=float) - b / 2


def expand(h, c, N):
    """Responses (a, N, M) from per-device means and slopes h, c of shape (a, Q, M)."""
    a, Q, M = h.shape
    d = offsets(N, Q)
    return (h[:, :, None, :] + c[:, :, None, :] * d[None, None, :, None]).reshape(a, N, M)


def expanded_energy(h, c, N, Q) -> float:
    """Energy of the responses that means h and slopes c (any shape, Q per device) expand to.

    Inside one sub-block sum_j |h + c d_j|^2 = b|h|^2 + 2 Re(h c*) sum(d) + |c|^2 sum(d^2),
    so no K x N x M tensor is formed.
    """
    h, c, d = np.ravel(h), np.ravel(c), offsets(N, Q)
    return float(d.size * np.vdot(h, h).real + 2.0 * d.sum() * np.vdot(c, h).real + np.sum(d**2) * np.vdot(c, c).real)


def blockwise_residual(G, Q):
    """G minus its least-squares mean-plus-slope fit, per sub-block, device and antenna."""
    a, N, M = G.shape
    b = N // Q
    X = np.column_stack([np.ones(b), offsets(N, Q)])
    coef, *_ = np.linalg.lstsq(X, G.reshape(a, Q, b, M).transpose(2, 0, 1, 3).reshape(b, -1), rcond=None)
    fit = (X @ coef).reshape(b, a, Q, M).transpose(1, 2, 0, 3).reshape(a, N, M)
    return G - fit


def block_statistics(powers, delays, delta_f, N, Q):
    """Per-coefficient variances of the least-squares sub-block fit, and the mean
    per-subcarrier power of its residual, for a unit-power tapped-delay-line channel.

    R[n, n'] = sum_l rho_l exp(-2j pi delta_f tau_l (n - n')) is the same in every
    sub-block, so one b x b block gives all three numbers.
    """
    b = N // Q
    lag = np.arange(b)[:, None] - np.arange(b)[None, :]
    R = np.einsum("l,lij->ij", powers, np.exp(-2j * np.pi * delta_f * delays[:, None, None] * lag))
    X = np.column_stack([np.ones(b), offsets(N, Q)])
    W = np.linalg.pinv(X)
    cov = W @ R @ W.conj().T
    resid = np.eye(b) - X @ W
    return float(cov[0, 0].real), float(cov[1, 1].real), float(np.trace(resid @ R @ resid.T).real) / b


def known_support_lmmse(cap, stats, noise_var, T, Q):
    """NMSE of the dense LMMSE of the active devices' means and slopes, given the support.

    Row r of the observation carries subcarrier n = r // T and, for device k, the
    pilot symbol scale * exp(-2j pi s_r k / K) with s_r the row's DFT index; the
    mean of sub-block q enters the rows of that sub-block with weight 1, the
    slope with the row's offset d.  The prior is the estimator's own model
    class (i.i.d. means and slopes), with variances from the channel statistics
    and the fit residual of the active devices added to the noise.
    """
    theta_H, theta_C, resid_power = stats
    K = cap.activity.size
    active = np.flatnonzero(cap.activity)
    a, N, M = cap.G_active.shape
    rows = cap.Y.shape[0]
    n_of_row = np.arange(rows) // T
    q_of_row = n_of_row // (N // Q)
    d_of_row = offsets(N, Q)[n_of_row % (N // Q)]
    s = cap.selections.ravel()
    pilots = cap.pilot_scale * np.exp(-2j * np.pi * (np.outer(s, active) % K) / K)  # (rows, a)
    in_block = q_of_row[:, None] == np.arange(Q)[None, :]  # (rows, Q)
    A = (pilots[:, :, None] * in_block[:, None, :]).reshape(rows, a * Q)
    Phi = np.hstack([A, d_of_row[:, None] * A])
    prior = np.concatenate([np.full(a * Q, theta_H), np.full(a * Q, theta_C)])
    sigma2 = noise_var + a * cap.pilot_scale**2 * resid_power
    cov_y = (Phi * prior) @ Phi.conj().T + sigma2 * np.eye(rows)
    x = prior[:, None] * (Phi.conj().T @ np.linalg.solve(cov_y, cap.Y))
    G_hat = expand(x[: a * Q].reshape(a, Q, M), x[a * Q :].reshape(a, Q, M), N)
    return float(np.sum(np.abs(cap.G_active - G_hat) ** 2) / np.sum(np.abs(cap.G_active) ** 2))


def check_trial(record, cap, N, Q, threshold):
    """Per-trial checks; returns (failures, independent nmse or nan, mismatch floor or nan)."""
    failures = []
    active = cap.activity != 0
    hat = cap.lambda_post >= threshold
    if not np.array_equal(hat, cap.decisions != 0):
        failures.append("decisions differ from lambda_post >= threshold")
    miss = int(np.count_nonzero(active & ~hat))
    false = int(np.count_nonzero(~active & hat))
    if (miss, false) != (record["miss"], record["false"]):
        failures.append(f"miss/false {record['miss']}/{record['false']} != recomputed {miss}/{false}")
    if not active.any():
        if not record["skipped_nmse"]:
            failures.append("no active device but NMSE not skipped")
        return failures, math.nan, math.nan

    sig = float(np.sum(np.abs(cap.G_active) ** 2))
    err = cap.inactive_energy + float(np.sum(np.abs(cap.G_active - expand(cap.H_active, cap.C_active, N)) ** 2))
    value = err / sig
    floor = float(np.sum(np.abs(blockwise_residual(cap.G_active, Q)) ** 2)) / sig
    if not abs(value - record["nmse"]) <= NMSE_RTOL * value:
        failures.append(f"nmse {record['nmse']!r} != recomputed {value!r}")
    if value < floor * (1.0 - NMSE_RTOL):
        failures.append(f"nmse {value:.4e} below the mismatch floor {floor:.4e}")
    return failures, value, floor


def same_record(a: dict, b: dict) -> bool:
    """Exact equality of two trial records, ignoring wall time and captures."""
    keys = (set(a) | set(b)) - {"wall_s", "_bench"}
    for key in keys:
        x, y = a.get(key), b.get(key)
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True
