"""The package's public names and config keys: exactly the pinned lists, and none of
the removed names."""

from dataclasses import fields

import pytest

import turbomp

PUBLIC = [
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
    "activity_posterior",
    "bg_denoise_batch",
    "build_codebook",
    "detect",
    "detection_metrics",
    "em_initial_params",
    "em_lambda",
    "em_sigma_w",
    "em_theta",
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

REMOVED = [
    "ActivityBeliefs",
    "DenoiseResult",
    "DeviceBlockPrior",
    "GaussianMessage",
    "SigmaDiag",
    "bg_denoise",
    "blockwise_basis",
    "combine",
    "cross_prior",
    "extrinsic",
    "init_state",
    "lmmse_posterior_c",
    "lmmse_posterior_h",
    "sigma_diag",
]

REMOVED_FROM_MODULES = {
    "activity": ["cross_prior"],
    "engine": ["TurboState", "_damp", "init_state"],
}

REMOVED_CONFIG_KEYS = ["damping", "em_damping", "em_slow_period", "inner_h_updates", "v_max"]

TURBO_OPTIONS_FIELDS = [
    "em_enabled",
    "em_sigma_correction",
    "max_iters",
    "rel_change_tol",
    "threshold",
]

CONFIG_KEYS = [
    "K",
    "M",
    "N",
    "Q",
    "T",
    "channel",
    "delta_f",
    "em_enabled",
    "em_sigma_correction",
    "lam",
    "master_seed",
    "max_iters",
    "min_error_events",
    "pdp_file",
    "pilot_power",
    "pin_codebook",
    "rel_change_tol",
    "sigma_w2",
    "snr_db",
    "strict_pilots",
    "theta_C",
    "theta_H",
    "threshold",
    "trials",
    "workers",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(turbomp.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(turbomp, name) is not None


def test_channel_realization_fields_are_pinned():
    """A trial's truth is the activity vector and the active devices' responses; the dense
    tensor is a derived view, not a field."""
    assert [f.name for f in fields(turbomp.ChannelRealization)] == ["activity", "G_active"]
    assert isinstance(vars(turbomp.ChannelRealization)["G"], property)
    assert isinstance(vars(turbomp.ChannelRealization)["active"], property)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(turbomp, name), name
    for module, names in REMOVED_FROM_MODULES.items():
        for name in names:
            assert not hasattr(getattr(turbomp, module), name), (module, name)
    assert not hasattr(turbomp.harness, "load_results_json")
    assert not hasattr(turbomp.PilotCodebook, "to_json")
    assert not hasattr(turbomp.PilotCodebook, "dense_A")
    assert not hasattr(turbomp.BlockwiseBasis(8, 2), "e1")
    assert not hasattr(turbomp.ExperimentConfig, "turbo_options")
    assert not hasattr(turbomp.engine.TurboDiagnostics(), "module_trace")
    assert not hasattr(turbomp.MultipathProfile, "num_taps")


def test_config_keys_are_pinned():
    """Every estimator option is declared once, in `TurboOptions`, and is a config key."""
    doc = dict(K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], lam=0.2, channel="exact",
               theta_H=1.0, theta_C=0.05)
    options = sorted(f.name for f in fields(turbomp.TurboOptions))
    keys = sorted(turbomp.ExperimentConfig.from_dict(doc).to_dict())
    assert options == TURBO_OPTIONS_FIELDS
    assert keys == CONFIG_KEYS
    assert set(options) <= set(keys)
    assert issubclass(turbomp.ExperimentConfig, turbomp.TurboOptions)
    for key in REMOVED_CONFIG_KEYS:
        with pytest.raises(turbomp.ConfigurationError, match="unknown"):
            turbomp.ExperimentConfig.from_dict({**doc, key: 1.0})
