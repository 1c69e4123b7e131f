"""Iteration schedule and message bookkeeping of the turbo estimator.

One engine iteration runs the linear estimator and the mean-block denoiser twice, then the
linear estimator and the slope-block denoiser once, then fuses activity evidence and optionally
refreshes the prior parameters.  Messages are device-contiguous (K, Q, M) blocks (the strides of
a C-ordered (Q, M, K) array, so every DFT and elementwise pass runs along contiguous memory)
with one variance per antenna; the `TurboResult` holds C-ordered (QK, M) matrices, converted
once per frame.  Both halves run `_branch` over the row weight w of the operator, 1 for the
means (A) or D for the slopes (B = D A).  `run_turbo_mp` keeps messages, their forward products,
per-antenna and per-device statistics and the priors in locals, hands each branch its residual,
observation variance Sigma and activity cross prior, and builds no (K, Q, M) posterior tensor:

* the linear extrinsic is the closed form x_ext = x_pri + c A^H z with z = w r / Sigma and one
  scalar c per antenna (see `lmmse`); since A A^H = K P I its forward product is
  w A x_ext = w A x_pri + c K P w z;
* the denoiser's posterior mean is lambda_post * theta / (theta + v) times its input, so its
  extrinsic x_und is a per-(device, antenna) scale of the input, and the only forward operator
  call of a branch is w A x_und;
* dividing the denoiser's posterior by its input message, `lmmse.extrinsic` gives per antenna
  alpha = v_out / v_post and beta = v_out / v_ext (1 and 0 where the outgoing message is
  uninformative) with x_und = alpha post_mean - beta x_ext, so
  w A post_mean = (w A x_und + beta w A x_ext) / alpha (beta is not formed as alpha - 1, whose
  rounding near alpha = 1 the far larger w A x_ext amplifies);
* each branch returns its outgoing message with that message's forward product, so
  fwd_h = A h_pri and fwd_c = B c_pri hold at every branch entry and the residual
  Y - fwd_h - fwd_c needs no operator call; nor does EM's residual Y - A H_post - B C_post.

One iteration thus costs one adjoint and one forward operator call per branch.  The posterior
means are built from the denoisers' last inputs only for the `TurboResult` and for the
truth-traced NMSE.

At large K each block pass runs as two halves on two threads (`parallel.halves`): x_und and the
per-antenna sums of the step norms split on the antenna axis (as `lmmse` and `denoiser` do, and
`pilots` on the sub-block axis).  Each element and each partial sum is computed alike in either
half, so outputs are bitwise independent of the split; pool workers never split.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .activity import activity_posterior, detect
from .denoiser import bg_denoise_batch
from .em import PriorParams, em_schedule
from .errors import DimensionError, NumericsError, ParameterError
from .lmmse import V_FLOOR, V_MAX, extrinsic, linear_extrinsic, observation_variance
from .parallel import halves
from .pilots import PilotCodebook


@dataclass
class TurboOptions:
    """Stopping rule, EM switches and detection threshold of one fixed schedule.

    Each iteration runs the mean branch twice, then the slope branch, then activity
    fusion and, with em_enabled, the EM refresh of `em.em_schedule`.
    """

    max_iters: int = 50
    rel_change_tol: float = 1e-3
    em_enabled: bool = False
    em_sigma_correction: bool = False
    threshold: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0.0 < self.rel_change_tol < np.inf:
            raise ParameterError(
                f"rel_change_tol must be positive and finite, got {self.rel_change_tol!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError("threshold must be in (0, 1)")


@dataclass
class TurboDiagnostics:
    """Per-iteration traces: variances, learned parameters, clamp events.

    clamp_events counts the outgoing antenna messages whose variance was clamped at `V_MAX`
    because they carried no information: the linear modules' and the denoisers' alike, summed
    over every branch run so far.  Each row holds the count at the end of its iteration.
    """

    rows: list = field(default_factory=list)
    clamp_events: int = 0


@dataclass
class TurboResult:
    """Final estimates, activity posteriors, decisions, and traces."""

    H: np.ndarray  # (QK, M)
    C: np.ndarray
    lambda_D_post: np.ndarray
    activity: np.ndarray
    priors: PriorParams
    iterations: int
    converged: bool
    diagnostics: TurboDiagnostics


def _residual(Y, fwd_h, fwd_c, diag):
    """Y - A h_pri - B c_pri from the carried forward products, checked finite."""
    resid = Y - fwd_h - fwd_c
    if not np.all(np.isfinite(resid)):
        raise NumericsError("non-finite residual in linear estimator", diagnostics=diag)
    return resid


def _step_norms(new, old):
    """||new - old|| and ||old|| of device-contiguous (K, Q, M) blocks, from per-antenna sums of
    squares added in a fixed order; old is overwritten with new - old, so nothing allocates."""
    sums, new_m, old_m = np.empty((2, new.shape[2])), new.transpose(2, 1, 0), old.transpose(2, 1, 0)

    def antennas(m):
        x = old_m[m].view(float)  # (antennas, Q, 2K)
        sums[1, m] = np.einsum("mqk,mqk->m", x, x)
        np.subtract(new_m[m], old_m[m], out=old_m[m])
        sums[0, m] = np.einsum("mqk,mqk->m", x, x)

    halves(antennas, new.shape[2], new.size)
    return np.sqrt(sums.sum(axis=1))


def _branch(resid, sigma, x_pri, v_pri, fwd_pri, weight, theta, lambda_pri, cb, diag):
    """Linear module then denoiser, for the means (weight 1.0) or slopes (weight D).

    resid is Y - A h_pri - B c_pri, sigma the observation variance Sigma, fwd_pri is
    weight * A @ x_pri and lambda_pri the denoiser's cross prior on activity.  Returns the
    outgoing message (mean, variance, forward product), the forward product
    weight * A @ post_mean of the denoiser's posterior mean and the denoiser's output.
    """
    ext, v_ext, _, fwd_ext = linear_extrinsic(x_pri, v_pri, fwd_pri, resid, sigma, weight, cb,
                                              V_MAX)
    den = bg_denoise_batch(ext, v_ext, theta, lambda_pri)
    v_post = np.maximum(den.column_var, V_FLOOR)
    # the denoiser's extrinsic message x_und = alpha post_mean - beta ext
    v_out, alpha, beta = extrinsic(v_post, v_ext, V_MAX)
    diag.clamp_events += int(np.count_nonzero(v_ext == V_MAX) + np.count_nonzero(v_out == V_MAX))
    scale = (np.outer(alpha * den.gain, den.lambda_post) - beta[:, None]).T  # (K, M), like ext
    x_und = np.empty_like(x_pri)  # device-contiguous, as every message is
    halves(lambda m: np.multiply(ext[..., m], scale[:, None, m], out=x_und[..., m]),
           ext.shape[2], ext.size)
    fwd_und = weight * cb.apply_A(x_und)
    fwd_post = (fwd_und + beta * fwd_ext) / alpha
    return x_und, np.maximum(v_out, V_FLOOR), fwd_und, fwd_post, den


def run_turbo_mp(
    Y: np.ndarray,
    codebook: PilotCodebook,
    priors: PriorParams,
    opts: TurboOptions | None = None,
    truth=None,
) -> TurboResult:
    """Run the full estimator on an observation matrix.

    Y has shape (T*N, M).  `truth` may be a (ChannelRealization, BlockwiseBasis)
    pair; when given, a reconstruction-error trace is added to the diagnostics.
    Inputs plus options determine the output exactly (no internal randomness).
    """
    opts = opts or TurboOptions()
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2 or Y.shape[0] != codebook.rows or Y.shape[1] < 1:
        raise DimensionError(f"Y must be ({codebook.rows}, M) with M >= 1, got {Y.shape}")
    M, diag, converged = Y.shape[1], TurboDiagnostics(), False
    # uninformed start: zero means with zero forward products, prior-matched variances, and
    # neutral slope evidence, so the first cross prior is lam
    h_pri, c_pri = (np.zeros((codebook.Q, M, codebook.K), dtype=np.complex128).transpose(2, 0, 1)
                    for _ in range(2))
    fwd_h = fwd_c = np.zeros_like(Y)
    v_h = np.full(M, priors.lam * priors.theta_H)
    v_c = np.full(M, priors.lam * priors.theta_C)
    pi_C = np.full(codebook.K, 0.5)

    for iteration in range(1, opts.max_iters + 1):
        h_prev, c_prev = h_pri, c_pri
        lambda_h = activity_posterior(pi_C, 0.5, priors.lam)
        for _ in range(2):
            resid = _residual(Y, fwd_h, fwd_c, diag)
            sigma = observation_variance(v_h, v_c, priors.sigma_w2, codebook)
            h_pri, v_h, fwd_h, post_fwd_h, den_h = _branch(
                resid, sigma, h_pri, v_h, fwd_h, 1.0, priors.theta_H, lambda_h, codebook, diag)
        lambda_c = activity_posterior(den_h.pi, 0.5, priors.lam)
        resid = _residual(Y, fwd_h, fwd_c, diag)
        sigma = observation_variance(v_h, v_c, priors.sigma_w2, codebook)
        c_pri, v_c, fwd_c, post_fwd_c, den_c = _branch(
            resid, sigma, c_pri, v_c, fwd_c, codebook.D_diag[:, None], priors.theta_C, lambda_c,
            codebook, diag)
        pi_C = den_c.pi
        # a NaN or inf makes a message's step or a variance's sum non-finite; checked before EM
        (step_h, norm_h), (step_c, norm_c) = _step_norms(h_pri, h_prev), _step_norms(c_pri, c_prev)
        del h_prev, c_prev  # now the steps: two blocks freed before EM and the result
        for branch, value in (("mean branch (h_pri, v_h)", step_h + v_h.sum()),
                              ("slope branch (c_pri, v_c)", step_c + v_c.sum())):
            if not np.isfinite(value):
                raise NumericsError(f"non-finite message in the {branch}", diagnostics=diag)
        change = np.hypot(step_h, step_c)

        lambda_D_post = activity_posterior(den_h.pi, pi_C, priors.lam)
        if opts.em_enabled:
            # the moment estimate mean(|r|^2 - (Sigma - sigma_w2)) of the slope branch's inputs
            moment = np.vdot(resid, resid).real / resid.size - np.mean(sigma) + priors.sigma_w2
            priors = em_schedule(priors, iteration, Y - post_fwd_h - post_fwd_c, float(moment),
                                 den_h, den_c, lambda_D_post, codebook, opts)

        denom = np.hypot(norm_h, norm_c)
        rel_change = float(change / denom) if denom > 0 else np.inf

        nmse_db = None
        if truth is not None and truth[0].activity.any():
            real, basis = truth
            H, C = (d.post_mean.reshape(codebook.cols, M) for d in (den_h, den_c))
            nmse_db = _metrics.nmse_db(_metrics.nmse(real, H, C, basis))
        diag.rows.append(dict(
            iter=iteration, v_h=float(np.mean(v_h)), v_c=float(np.mean(v_c)),
            sigma_w2=priors.sigma_w2, lam=priors.lam, theta_H=priors.theta_H,
            theta_C=priors.theta_C, rel_change=rel_change, nmse_db=nmse_db,
            clamp_events=diag.clamp_events,
        ))
        if rel_change < opts.rel_change_tol:
            converged = True
            break

    lambda_post = activity_posterior(den_h.pi, pi_C, priors.lam)
    H, C = (d.post_mean.reshape(codebook.cols, M) for d in (den_h, den_c))
    return TurboResult(H=H, C=C, lambda_D_post=lambda_post,
                       activity=detect(lambda_post, opts.threshold), priors=priors,
                       iterations=iteration, converged=converged, diagnostics=diag)
