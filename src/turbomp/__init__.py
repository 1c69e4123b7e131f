"""Joint activity detection and block-wise linear channel estimation for
MIMO-OFDM grant-free random access."""

from .activity import ActivityBeliefs, activity_posterior, cross_prior, detect
from .channel import (
    BlockwiseBasis,
    BlockwiseTruth,
    ChannelRealization,
    MultipathProfile,
    blockwise_basis,
    load_pdp,
    project_blockwise,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from .denoiser import (
    DenoiseBatch,
    DenoiseResult,
    DeviceBlockPrior,
    bg_denoise,
    bg_denoise_batch,
)
from .em import (
    PriorParams,
    em_initial_params,
    em_lambda,
    em_schedule,
    em_sigma_w,
    em_theta,
)
from .engine import (
    TurboDiagnostics,
    TurboOptions,
    TurboResult,
    TurboState,
    init_state,
    run_turbo_mp,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    NumericsError,
    ParameterError,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    emit_results,
    emit_roc,
    run_experiment,
    run_roc,
    run_single_trial,
)
from .lmmse import (
    GaussianMessage,
    SigmaDiag,
    combine,
    extrinsic,
    lmmse_posterior_c,
    lmmse_posterior_h,
    sigma_diag,
)
from .metrics import TrialMetrics, detection_metrics, nmse, nmse_db, roc_sweep
from .pilots import PilotCodebook, build_codebook

__version__ = "0.1.0"

__all__ = [
    "ActivityBeliefs",
    "BlockwiseBasis",
    "BlockwiseTruth",
    "ChannelRealization",
    "ConfigurationError",
    "DenoiseBatch",
    "DenoiseResult",
    "DeviceBlockPrior",
    "DimensionError",
    "ExperimentConfig",
    "ExperimentResult",
    "GaussianMessage",
    "MultipathProfile",
    "NumericsError",
    "ParameterError",
    "PilotCodebook",
    "PriorParams",
    "SigmaDiag",
    "TrialMetrics",
    "TurboDiagnostics",
    "TurboOptions",
    "TurboResult",
    "TurboState",
    "activity_posterior",
    "bg_denoise",
    "bg_denoise_batch",
    "blockwise_basis",
    "build_codebook",
    "combine",
    "cross_prior",
    "detect",
    "detection_metrics",
    "em_initial_params",
    "em_lambda",
    "em_schedule",
    "em_sigma_w",
    "em_theta",
    "emit_results",
    "emit_roc",
    "extrinsic",
    "init_state",
    "lmmse_posterior_c",
    "lmmse_posterior_h",
    "load_pdp",
    "nmse",
    "nmse_db",
    "project_blockwise",
    "roc_sweep",
    "run_experiment",
    "run_roc",
    "run_single_trial",
    "run_turbo_mp",
    "sample_activity",
    "sample_blockwise_exact",
    "sample_channel",
    "sigma_diag",
]
