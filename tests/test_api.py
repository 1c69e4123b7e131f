"""The package's public names: exactly the pinned list, and none of the removed ones."""

import turbomp

PUBLIC = [
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

REMOVED = [
    "ActivityBeliefs",
    "DenoiseResult",
    "DeviceBlockPrior",
    "GaussianMessage",
    "SigmaDiag",
    "bg_denoise",
    "combine",
    "extrinsic",
    "lmmse_posterior_c",
    "lmmse_posterior_h",
    "sigma_diag",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(turbomp.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(turbomp, name) is not None


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(turbomp, name), name
    assert not hasattr(turbomp.harness, "load_results_json")
    assert not hasattr(turbomp.PilotCodebook, "to_json")
    assert not hasattr(turbomp.PilotCodebook, "dense_A")
    assert not hasattr(turbomp.blockwise_basis(8, 2), "e1")
