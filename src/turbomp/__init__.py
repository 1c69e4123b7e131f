"""Joint activity detection and block-wise linear channel estimation for
MIMO-OFDM grant-free random access."""

from .activity import activity_posterior, cross_prior, detect
from .channel import (
    ChannelRealization,
    MultipathProfile,
    blockwise_basis,
    load_pdp,
    project_blockwise,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from .denoiser import bg_denoise_batch
from .em import PriorParams, em_initial_params, em_lambda, em_sigma_w, em_theta
from .engine import TurboOptions, TurboResult, init_state, run_turbo_mp
from .errors import ConfigurationError, DimensionError, NumericsError, ParameterError
from .harness import (
    ExperimentConfig,
    emit_results,
    emit_roc,
    run_experiment,
    run_roc,
    run_single_trial,
)
from .metrics import detection_metrics, nmse, roc_sweep
from .pilots import PilotCodebook, build_codebook

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "ConfigurationError",
    "DimensionError",
    "ExperimentConfig",
    "MultipathProfile",
    "NumericsError",
    "ParameterError",
    "PilotCodebook",
    "PriorParams",
    "TurboOptions",
    "TurboResult",
    "activity_posterior",
    "bg_denoise_batch",
    "blockwise_basis",
    "build_codebook",
    "cross_prior",
    "detect",
    "detection_metrics",
    "em_initial_params",
    "em_lambda",
    "em_sigma_w",
    "em_theta",
    "emit_results",
    "emit_roc",
    "init_state",
    "load_pdp",
    "nmse",
    "project_blockwise",
    "roc_sweep",
    "run_experiment",
    "run_roc",
    "run_single_trial",
    "run_turbo_mp",
    "sample_activity",
    "sample_blockwise_exact",
    "sample_channel",
]
