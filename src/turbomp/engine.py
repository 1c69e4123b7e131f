"""Iteration schedule and message bookkeeping of the turbo estimator.

One engine iteration runs the linear estimator and the mean-block denoiser twice, then the
linear estimator and the slope-block denoiser once, then, with EM on, refreshes the prior
parameters.  Messages are device-contiguous (K, Q, M) blocks (the strides of
a C-ordered (Q, M, K) array, so every DFT and elementwise pass runs along contiguous memory)
with one variance per antenna; the `TurboResult` holds C-ordered (QK, M) matrices, converted
once per frame.  Both halves run `_branch` over the row weight w of the operator, 1 for the
means (A) or D for the slopes (B = D A).  `run_turbo_mp` keeps messages, their forward products,
per-antenna and per-device statistics and the priors in locals, hands each branch its residual,
observation variance Sigma and activity cross prior, and builds no (K, Q, M) posterior tensor:

* each message is carried as its device-axis DFT, the spectrum `PilotCodebook.apply_A` leaves
  in place of the message it transforms, and the codebook alone reads it;
* the linear extrinsic is the closed form x_ext = x_pri + c A^H z with z = w r / Sigma and one
  scalar c per antenna (see `lmmse`, which alone bounds the message variances), one inverse DFT
  of x_pri's spectrum with c K sqrt(P) z added to its pilot rows; since A A^H = K P I its
  forward product is w A x_ext = w A x_pri + c K P w z;
* the denoiser's posterior mean is lambda_post * theta / (theta + v) times its input, so its
  extrinsic x_und is a per-(device, antenna) scale of the input, and the only forward operator
  call of a branch is w A x_und;
* dividing the denoiser's posterior by its input message, `lmmse.extrinsic` gives per antenna
  alpha = v_out / v_post and beta = v_out / v_ext (1 and 0 where the outgoing message is
  uninformative) with x_und = alpha post_mean - beta x_ext, so
  w A post_mean = (w A x_und + beta w A x_ext) / alpha (beta is not formed as alpha - 1, whose
  rounding near alpha = 1 the far larger w A x_ext amplifies);
* each branch returns its outgoing message's spectrum with that message's forward product, so
  fwd_h = A h_pri and fwd_c = B c_pri hold at every branch entry and the residual
  Y - fwd_h - fwd_c needs no operator call; nor does EM's residual Y - A H_post - B C_post.

One iteration thus costs one adjoint and one forward operator call per branch.  sqrt(P), D^2, its
mean and the pilot-row index are built once per codebook, the full (T*N, M) weight D once per
frame, and each other term once per change of its inputs: Sigma's slope term K P D^2 v_c once per
iteration, the posterior forward products only for EM's residual, the posterior means only for
the result and the traced NMSE; EM's moment belongs to `em`, which gets the slope pass's residual
and Sigma.  (T*N, M) products take real factors, 1/Sigma and 1/alpha as complex: numpy would cast
them through a buffer.  Activity is carried in log-odds: each denoiser reports its prior-free
evidence, +-inf included, and the other branch's denoiser takes it, with the rate lambda, as its
cross prior; `em` fuses EM's activity posterior, the engine only the frame's final one, which
`detect` rejects if NaN.

A frame writes its (K, Q, M) blocks into one workspace, a (5, Q, M, K) array allocated by
`run_turbo_mp` and freed when it returns; each slot is a device-contiguous view.  Two slots hold
the iteration-start spectra of h and c, zeroed (the zero message's) only at the start, and a
spare slot takes each pass's outgoing message, whose DFT runs in place; the second mean pass
writes over its own input, which the adjoint has read.  `_step_norms` then turns each start slot
into its step, on the spectra (by Parseval `rel_change` is the messages'), and the freed slot is
the next spare.  Two slots hold each branch's x_ext, which its denoiser keeps as `pri_mean`
until the branch runs again: a `DenoiseBatch` of the first mean pass reads the slot that the
second overwrites, so only each branch's last one is read.  H and C are built into fresh
arrays, so no result aliases the workspace.

At large K each block pass runs as two halves on two threads (`parallel.halves`): x_und and the
per-antenna sums of the step norms split on the antenna axis (as `denoiser` does, and `pilots`
on the sub-block axis).  Each element and each partial sum is computed alike in either
half, so outputs are bitwise independent of the split; pool workers never split.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import lmmse, metrics as _metrics
from .activity import detect, fuse
from .denoiser import bg_denoise_batch
from .em import PriorParams, em_schedule
from .errors import DimensionError, NumericsError, ParameterError
from .lmmse import extrinsic, linear_extrinsic, observation_variance, slope_variance
from .parallel import halves
from .pilots import PilotCodebook


def _number(value, kind=numbers.Real) -> bool:
    """value is a `kind` number and not a bool, which numbers counts as the integers 0 and 1."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class TurboOptions:
    """Stopping rule, EM switches and detection threshold of one fixed schedule.

    Each iteration runs the mean branch twice, then the slope branch, then, with em_enabled,
    the EM refresh of `em.em_schedule`.  Frozen, and checked when built.
    """

    max_iters: int = 50
    rel_change_tol: float = 1e-3
    em_enabled: bool = False
    em_sigma_correction: bool = False
    threshold: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("em_enabled", "em_sigma_correction"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be True or False, got {getattr(self, name)!r}")
        if not (_number(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (_number(self.rel_change_tol) and 0 < self.rel_change_tol < np.inf):
            raise ParameterError(
                f"rel_change_tol must be positive and finite, got {self.rel_change_tol!r}")
        if not (_number(self.threshold) and 0.0 < self.threshold < 1.0):
            raise ParameterError(f"threshold must be in (0, 1), got {self.threshold!r}")


@dataclass
class TurboDiagnostics:
    """Per-iteration traces: variances, learned parameters, clamp events.

    clamp_events counts the outgoing antenna messages whose variance `lmmse` clamped at its
    `V_MAX` because they carried no information: the linear modules' and the denoisers' alike,
    summed over every branch run so far.  Each row holds the count at the end of its iteration.
    """

    rows: list = field(default_factory=list)
    clamp_events: int = 0


@dataclass(eq=False)
class TurboResult:
    """Final estimates, activity posteriors, decisions and traces; compared by identity."""

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
    if not np.isfinite(resid).all():
        raise NumericsError("non-finite residual in linear estimator", diagnostics=diag)
    return resid


def _step_norms(new, old):
    """||new - old|| and ||old|| of device-contiguous (K, Q, M) spectra, from per-antenna sums of
    squares added in a fixed order; old is overwritten with new - old, so nothing allocates."""
    sums, new_m, old_m = np.empty((2, new.shape[2])), new.transpose(2, 1, 0), old.transpose(2, 1, 0)

    def antennas(m):
        x = old_m[m].view(float)  # (antennas, Q, 2K)
        sums[1, m] = np.einsum("mqk,mqk->m", x, x)
        np.subtract(new_m[m], old_m[m], out=old_m[m])
        sums[0, m] = np.einsum("mqk,mqk->m", x, x)

    halves(antennas, new.shape[2], new.size)
    return np.sqrt(sums.sum(axis=1))


def _branch(resid, sigma, spectrum, v_pri, fwd_pri, weight, theta, prior, cb, diag, ext, out):
    """Linear module then denoiser, for the means (weight 1.0) or slopes (weight D).

    resid is Y - A h_pri - B c_pri, sigma the observation variance Sigma, spectrum x_pri's
    spectrum, fwd_pri is weight * A @ x_pri and prior the denoiser's cross prior on activity,
    a (lambda, evidence) pair (see `bg_denoise_batch`).  ext and out are workspace slots: the
    linear extrinsic message, which the denoiser keeps as its input, and the outgoing message's
    spectrum, which may be spectrum itself.  Returns the outgoing message (spectrum, variance,
    forward product), the forward product weight * A @ x_ext, the denoiser's output, and the
    per-antenna 1/alpha and beta as complex, which give weight * A @ post_mean (module docstring).
    """
    ext, v_ext, fwd_ext = linear_extrinsic(spectrum, v_pri, fwd_pri, resid, sigma, weight, cb, ext)
    den = bg_denoise_batch(ext, v_ext, theta, *prior)
    # the denoiser's extrinsic message x_und = alpha post_mean - beta ext
    v_out, alpha, beta = extrinsic(den.column_var, v_ext)
    diag.clamp_events += sum(np.count_nonzero(v == lmmse.V_MAX) for v in (v_ext, v_out))
    scale = (np.multiply.outer(alpha * den.gain, den.lambda_post) - beta[:, None]).T  # (K, M)
    halves(lambda m: np.multiply(ext[..., m], scale[:, None, m], out=out[..., m]),
           ext.shape[2], ext.size)
    fwd_und = cb.apply_A(out)  # leaves x_und's spectrum in out
    fwd_und *= np.asarray(weight, dtype=complex)
    return out, v_out, fwd_und, fwd_ext, den, (1.0 / alpha).astype(complex), beta.astype(complex)


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
    if Y.ndim != 2 or Y.shape[0] != codebook.rows or Y.shape[1] < 1:
        raise DimensionError(f"Y must be ({codebook.rows}, M) with M >= 1, got {Y.shape}")
    M, diag, converged = Y.shape[1], TurboDiagnostics(), False
    # one array, not five: past glibc's mmap threshold (41 MB at K=16000, M=8) it is a mapping
    # of its own, returned when the frame ends, where separate blocks stayed in the malloc arena
    workspace = np.empty((5, codebook.Q, M, codebook.K), dtype=np.complex128)
    h_pri, c_pri, spare, h_ext, c_ext = workspace.transpose(0, 3, 1, 2)
    # uninformed start: zero means (whose spectra are zero) with zero forward products,
    # prior-matched variances, and neutral slope evidence, so the first cross prior is lam
    h_pri[...] = c_pri[...] = 0
    fwd_h = fwd_c = np.zeros_like(Y)
    v_h = np.full(M, priors.lam * priors.theta_H)
    v_c = np.full(M, priors.lam * priors.theta_C)
    evidence_c = 0.0
    d_weight = np.repeat(codebook.D_diag[:, None], M, axis=1)  # B's row weight, per entry

    for iteration in range(1, opts.max_iters + 1):
        slope = slope_variance(v_c, codebook)  # Sigma's slope term: v_c moves in the slope pass
        h_new = h_pri
        for _ in range(2):  # the first pass writes into the spare slot, the second over its input
            resid = _residual(Y, fwd_h, fwd_c, diag)
            sigma = observation_variance(v_h, slope, priors.sigma_w2, codebook)
            h_new, v_h, fwd_h, fwd_ext_h, den_h, inv_alpha_h, beta_h = _branch(
                resid, sigma, h_new, v_h, fwd_h, 1.0, priors.theta_H, (priors.lam, evidence_c),
                codebook, diag, h_ext, spare)
        # a NaN or inf makes a message's step or a variance's sum non-finite; checked before EM
        (step_h, norm_h), spare, h_pri = _step_norms(h_new, h_pri), h_pri, h_new
        resid = _residual(Y, fwd_h, fwd_c, diag)
        sigma = observation_variance(v_h, slope, priors.sigma_w2, codebook)
        c_new, v_c, fwd_c, fwd_ext_c, den_c, inv_alpha_c, beta_c = _branch(
            resid, sigma, c_pri, v_c, fwd_c, d_weight, priors.theta_C,
            (priors.lam, den_h.evidence), codebook, diag, c_ext, spare)
        (step_c, norm_c), spare, c_pri = _step_norms(c_new, c_pri), c_pri, c_new
        evidence_c = den_c.evidence
        for branch, value in (("mean branch (h_pri, v_h)", step_h + v_h.sum()),
                              ("slope branch (c_pri, v_c)", step_c + v_c.sum())):
            if not np.isfinite(value):
                raise NumericsError(f"non-finite message in the {branch}", diagnostics=diag)
        change = np.hypot(step_h, step_c)

        if opts.em_enabled:  # Y - A H_post - B C_post, with the slope pass's residual and Sigma
            post_resid = (Y - (fwd_h + beta_h * fwd_ext_h) * inv_alpha_h
                          - (fwd_c + beta_c * fwd_ext_c) * inv_alpha_c)
            priors = em_schedule(priors, iteration, post_resid, resid, sigma, den_h, den_c,
                                 codebook, opts)

        denom = np.hypot(norm_h, norm_c)
        rel_change = float(change / denom) if denom > 0 else np.inf

        nmse_db = None
        if truth is not None and truth[0].activity.any():
            real, basis = truth
            H, C = (d.post_mean.reshape(codebook.cols, M) for d in (den_h, den_c))
            nmse_db = _metrics.nmse_db(_metrics.nmse(real, H, C, basis))
        diag.rows.append(dict(
            iter=iteration, v_h=float(v_h.mean()), v_c=float(v_c.mean()),
            sigma_w2=priors.sigma_w2, lam=priors.lam, theta_H=priors.theta_H,
            theta_C=priors.theta_C, rel_change=rel_change, nmse_db=nmse_db,
            clamp_events=diag.clamp_events,
        ))
        if rel_change < opts.rel_change_tol:
            converged = True
            break

    lambda_post = fuse(priors.lam, den_h.evidence, evidence_c)
    H, C = (d.post_mean.reshape(codebook.cols, M) for d in (den_h, den_c))
    return TurboResult(H=H, C=C, lambda_D_post=lambda_post,
                       activity=detect(lambda_post, opts.threshold), priors=priors,
                       iterations=iteration, converged=converged, diagnostics=diag)
