"""Iteration schedule and message bookkeeping of the turbo estimator.

One engine iteration runs the linear estimator and the mean-block denoiser
(possibly several times), then the linear estimator and the slope-block
denoiser once, then fuses activity evidence and optionally refreshes the
prior parameters.  Messages are (QK, M) matrices, one column per antenna,
with one variance per antenna.  Both halves run `_branch` over the row
weight w of the operator, 1 for the means (A) or D for the slopes (B = D A).
The loop carries messages, their forward products and per-antenna and
per-device statistics, and builds no (K, Q, M) posterior tensor:

* the linear extrinsic is the closed form x_ext = x_pri + c A^H z with
  z = w r / Sigma and one scalar c per antenna (see `lmmse`); since
  A A^H = K P I its forward product is w A x_ext = w A x_pri + c K P w z;
* the denoiser's posterior mean is lambda_post * theta / (theta + v) times
  its input, so its extrinsic x_und is a per-(device, antenna) scale of the
  input, and the only forward operator call of a branch is w A x_und;
* dividing the denoiser's posterior by its input message, `lmmse.extrinsic`
  gives per antenna alpha = v_out / v_post and beta = v_out / v_ext (1 and 0
  where the outgoing message is uninformative) with
  x_und = alpha post_mean - beta x_ext, so
  w A post_mean = (w A x_und + beta w A x_ext) / alpha (beta is not formed as
  alpha - 1, whose rounding near alpha = 1 the far larger w A x_ext amplifies);
* damping mixes messages and forward products alike, so fwd_h = A h_pri
  and fwd_c = B c_pri hold at every branch entry and the residual
  Y - fwd_h - fwd_c needs no operator call; nor does EM's residual
  Y - A H_post - B C_post.

One iteration thus costs one adjoint and one forward operator call per
branch.  The posterior means are built from the denoisers' last inputs
only for the `TurboResult` and for the truth-traced NMSE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .activity import activity_posterior, cross_prior, detect
from .denoiser import DenoiseBatch, bg_denoise_batch
from .em import PriorParams, em_schedule
from .errors import DimensionError, NumericsError, ParameterError
from .lmmse import V_FLOOR, V_MAX, extrinsic, linear_extrinsic, observation_variance
from .pilots import PilotCodebook


@dataclass
class TurboOptions:
    """Knobs of the iteration schedule and numerical guards."""

    max_iters: int = 50
    rel_change_tol: float = 1e-6
    inner_h_updates: int = 2
    em_enabled: bool = False
    em_slow_period: int = 3
    em_damping: float = 1.0
    em_sigma_correction: bool = False
    threshold: float = 0.5
    damping: float = 1.0
    v_max: float = V_MAX

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if self.rel_change_tol <= 0:
            raise ParameterError("rel_change_tol must be positive")
        if self.inner_h_updates < 1:
            raise ParameterError("inner_h_updates must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError("threshold must be in (0, 1)")
        if not 0.0 < self.damping <= 1.0:
            raise ParameterError("damping must be in (0, 1]")
        if not 0.0 < self.em_damping <= 1.0:
            raise ParameterError("em_damping must be in (0, 1]")
        if self.em_slow_period < 1:
            raise ParameterError("em_slow_period must be >= 1")
        if not (np.isfinite(self.v_max) and self.v_max > 0):
            raise ParameterError("v_max must be positive and finite")


@dataclass
class TurboDiagnostics:
    """Per-iteration traces: variances, learned parameters, clamp events."""

    rows: list = field(default_factory=list)
    module_trace: list = field(default_factory=list)
    clamp_events: int = 0


@dataclass
class TurboState:
    """All mutable quantities carried across iterations."""

    Y: np.ndarray
    codebook: PilotCodebook
    priors: PriorParams
    M: int
    h_pri: np.ndarray  # (QK, M) mean-coefficient message into the linear module
    v_h: np.ndarray  # (M,)
    c_pri: np.ndarray
    v_c: np.ndarray
    fwd_h: np.ndarray  # (TN, M) A @ h_pri
    fwd_c: np.ndarray  # (TN, M) B @ c_pri
    post_fwd_h: np.ndarray  # (TN, M) A @ H_post
    post_fwd_c: np.ndarray  # (TN, M) B @ C_post
    pi_B: np.ndarray  # (K,)
    pi_C: np.ndarray
    lambda_D_post: np.ndarray
    den_h: DenoiseBatch | None = None  # the last mean-block and slope-block denoiser outputs
    den_c: DenoiseBatch | None = None
    iteration: int = 0
    diagnostics: TurboDiagnostics = field(default_factory=TurboDiagnostics)


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


def init_state(codebook: PilotCodebook, priors: PriorParams, M: int, Y=None) -> TurboState:
    """Uninformed starting state: zero means, prior-matched variances,
    and neutral activity evidence so the first cross-message equals the prior."""
    if M < 1:
        raise ParameterError("M must be >= 1")
    K, n = codebook.K, codebook.cols
    zeros = lambda *shape: np.zeros(shape, dtype=np.complex128)
    return TurboState(
        Y=Y if Y is not None else zeros(codebook.rows, M),
        codebook=codebook,
        priors=priors,
        M=M,
        h_pri=zeros(n, M),
        v_h=np.full(M, priors.lam * priors.theta_H),
        c_pri=zeros(n, M),
        v_c=np.full(M, priors.lam * priors.theta_C),
        fwd_h=zeros(codebook.rows, M),  # the products of the zero means
        fwd_c=zeros(codebook.rows, M),
        post_fwd_h=zeros(codebook.rows, M),
        post_fwd_c=zeros(codebook.rows, M),
        pi_B=np.full(K, 0.5),
        pi_C=np.full(K, 0.5),
        lambda_D_post=np.full(K, priors.lam),
    )


def _damp(new, old, factor):
    if factor >= 1.0:
        return new
    return factor * new + (1.0 - factor) * old


def _count_uninformative(v_post, v_pri) -> int:
    return int(np.count_nonzero(np.asarray(v_post) >= np.asarray(v_pri)))


def _branch(state: TurboState, x_pri, v_pri, fwd_pri, weight, theta: float, pi_other, opts):
    """Linear module then denoiser, for the means (weight 1.0) or slopes (weight D).

    fwd_pri is weight * A @ x_pri.  Returns the damped outgoing message
    (mean, variance, forward product), the forward product weight * A @
    post_mean of the denoiser's posterior mean and the denoiser's output.
    """
    cb, diag = state.codebook, state.diagnostics
    names = ("A_h", "B") if np.isscalar(weight) else ("A_c", "C")
    resid = state.Y - state.fwd_h - state.fwd_c
    if not np.all(np.isfinite(resid)):
        raise NumericsError("non-finite residual in linear estimator", diagnostics=diag)
    sigma = observation_variance(state.v_h, state.v_c, state.priors.sigma_w2, cb)
    ext, v_ext, v_lin, fwd_ext = linear_extrinsic(x_pri, v_pri, fwd_pri, resid, sigma, weight,
                                                  cb, opts.v_max)
    diag.clamp_events += _count_uninformative(v_lin, v_pri)
    diag.module_trace.append(names[0])

    lambda_pri = cross_prior(pi_other, state.priors.lam)
    blocks = ext.reshape(cb.K, cb.Q, state.M)
    den = bg_denoise_batch(blocks, v_ext, theta, lambda_pri)
    v_post = np.maximum(den.column_var, V_FLOOR)
    diag.clamp_events += _count_uninformative(v_post, v_ext)
    # the denoiser's extrinsic message x_und = alpha post_mean - beta blocks
    v_out, alpha, beta = extrinsic(v_post, v_ext, opts.v_max)
    scale = np.outer(den.lambda_post, alpha * den.gain) - beta  # (K, M)
    x_und = (blocks * scale[:, None, :]).reshape(cb.cols, state.M)
    fwd_und = weight * cb.apply_A(x_und)
    fwd_post = (fwd_und + beta * fwd_ext) / alpha
    x_new = _damp(x_und, x_pri, opts.damping)
    fwd_new = _damp(fwd_und, fwd_pri, opts.damping)
    v_new = _damp(np.maximum(v_out, V_FLOOR), v_pri, opts.damping)
    diag.module_trace.append(names[1])
    return x_new, v_new, fwd_new, fwd_post, den


def _check_finite(state: TurboState) -> None:
    for name in ("h_pri", "c_pri", "v_h", "v_c"):
        arr = np.asarray(getattr(state, name))
        if not np.all(np.isfinite(arr)):
            raise NumericsError(f"non-finite message in {name}", diagnostics=state.diagnostics)


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
    if Y.ndim != 2 or Y.shape[0] != codebook.rows:
        raise DimensionError(f"Y must be ({codebook.rows}, M), got {Y.shape}")
    state = init_state(codebook, priors, Y.shape[1], Y=Y)
    diag = state.diagnostics
    converged = False

    for iteration in range(1, opts.max_iters + 1):
        state.iteration = iteration
        p, h_prev, c_prev = state.priors, state.h_pri, state.c_pri
        for _ in range(opts.inner_h_updates):
            state.h_pri, state.v_h, state.fwd_h, state.post_fwd_h, state.den_h = _branch(
                state, state.h_pri, state.v_h, state.fwd_h, 1.0, p.theta_H, state.pi_C, opts)
        state.pi_B = state.den_h.pi
        state.c_pri, state.v_c, state.fwd_c, state.post_fwd_c, state.den_c = _branch(
            state, state.c_pri, state.v_c, state.fwd_c, codebook.D_diag[:, None], p.theta_C,
            state.pi_B, opts)
        state.pi_C = state.den_c.pi
        _check_finite(state)

        state.lambda_D_post = activity_posterior(state.pi_B, state.pi_C, state.priors.lam)
        if opts.em_enabled:
            state.priors = em_schedule(state, opts)
            diag.module_trace.append("EM")

        norm = np.linalg.norm
        denom = np.hypot(norm(h_prev), norm(c_prev))
        change = np.hypot(norm(state.h_pri - h_prev), norm(state.c_pri - c_prev))
        rel_change = float(change / denom) if denom > 0 else np.inf

        nmse_db = None
        if truth is not None and truth[0].activity.any():
            real, basis = truth
            H, C = (d.post_mean.reshape(codebook.cols, state.M) for d in (state.den_h, state.den_c))
            nmse_db = _metrics.nmse_db(_metrics.nmse(real.G, H, C, basis, real.activity))
        diag.rows.append(
            {
                "iter": iteration,
                "v_h": float(np.mean(state.v_h)),
                "v_c": float(np.mean(state.v_c)),
                "sigma_w2": state.priors.sigma_w2,
                "lam": state.priors.lam,
                "rel_change": rel_change,
                "nmse_db": nmse_db,
                "clamp_events": diag.clamp_events,
            }
        )
        if rel_change < opts.rel_change_tol:
            converged = True
            break

    lambda_post = activity_posterior(state.pi_B, state.pi_C, state.priors.lam)
    return TurboResult(
        H=state.den_h.post_mean.reshape(codebook.cols, state.M),
        C=state.den_c.post_mean.reshape(codebook.cols, state.M),
        lambda_D_post=lambda_post,
        activity=detect(lambda_post, opts.threshold),
        priors=state.priors,
        iterations=state.iteration,
        converged=converged,
        diagnostics=diag,
    )
