"""Joint activity detection and block-wise linear channel estimation for
MIMO-OFDM grant-free random access."""

from .activity import detect
from .channel import (
    BlockwiseBasis,
    ChannelRealization,
    MultipathProfile,
    load_pdp,
    project_blockwise,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from .em import PriorParams, em_initial_params
from .engine import TurboOptions, TurboResult, run_turbo_mp
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
    "BlockwiseBasis",
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
    "build_codebook",
    "detect",
    "detection_metrics",
    "em_initial_params",
    "emit_results",
    "emit_roc",
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
