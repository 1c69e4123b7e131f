"""The package's public names and config keys: exactly the pinned lists, and none of
the removed names; the operand forms of the pilot operators; and the harness and operator
surface the benchmark drives."""

import concurrent.futures
import importlib
import inspect
from dataclasses import asdict, fields

import numpy as np
import pytest

import turbomp

from oracles import block, forward

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

REMOVED = [
    "ActivityBeliefs",
    "DenoiseResult",
    "DeviceBlockPrior",
    "GaussianMessage",
    "SigmaDiag",
    "activity_posterior",
    "bg_denoise",
    "bg_denoise_batch",
    "blockwise_basis",
    "combine",
    "cross_prior",
    "em_lambda",
    "em_sigma_w",
    "em_theta",
    "extrinsic",
    "init_state",
    "lmmse_posterior_c",
    "lmmse_posterior_h",
    "sigma_diag",
]

REMOVED_FROM_MODULES = {
    "activity": ["LOG_ODDS_CLAMP", "activity_posterior", "cross_prior"],
    "denoiser": ["_denoise", "_per_device"],
    "em": ["em_lambda", "em_sigma_w", "em_theta"],
    "engine": ["TurboState", "_damp", "init_state"],
    "harness": ["_is_number"],
}

REMOVED_CONFIG_KEYS = [
    "damping", "em_damping", "em_slow_period", "inner_h_updates", "pin_codebook", "strict_pilots",
    "v_max",
]

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
    "rel_change_tol",
    "sigma_w2",
    "snr_db",
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
    for name in ("dense_A", "apply_B", "apply_B_adjoint"):
        assert not hasattr(turbomp.PilotCodebook, name), name
    assert turbomp.engine.bg_denoise_batch is turbomp.denoiser.bg_denoise_batch
    assert "pi" not in {f.name for f in fields(turbomp.denoiser.DenoiseBatch)}
    assert not hasattr(turbomp.denoiser.DenoiseBatch, "post_var_elem")
    assert "strict" not in {f.name for f in fields(turbomp.PilotCodebook)}
    assert not hasattr(turbomp.BlockwiseBasis(8, 2), "e1")
    assert not hasattr(turbomp.ExperimentConfig, "turbo_options")
    assert not hasattr(turbomp.ExperimentConfig, "to_dict")
    assert not hasattr(turbomp.engine.TurboDiagnostics(), "module_trace")
    assert not hasattr(turbomp.MultipathProfile, "num_taps")


def test_activity_holds_the_log_odds_rules():
    """`logit`, `sigmoid`, `fuse` and `detect` live in `activity`, the former `logodds` module
    is gone, and `fuse` takes both evidence terms, with no default for the second."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("turbomp.logodds")
    for name in ("logit", "sigmoid", "fuse", "detect"):
        assert getattr(turbomp.activity, name).__module__ == "turbomp.activity", name
    params = inspect.signature(turbomp.activity.fuse).parameters
    assert list(params) == ["lam", "e_a", "e_b"]
    assert params["e_b"].default is inspect.Parameter.empty


def test_one_pilot_row_rule_and_frozen_options():
    """Pilots are T*N distinct DFT rows, with no flag; the linear module hands back only its
    extrinsic message and that message's forward product; the options are frozen."""
    for fn in (turbomp.build_codebook, turbomp.pilots.check_pilot_rows):
        assert "strict" not in inspect.signature(fn).parameters, fn.__name__
    cb = turbomp.build_codebook(K=16, N=4, T=2, Q=2, seed=0)
    lmmse = turbomp.lmmse
    sigma = lmmse.observation_variance(1.0, lmmse.slope_variance(np.full(1, 0.1), cb), 0.1, cb)
    zeros = np.zeros((cb.rows, 1), dtype=complex)
    assert len(lmmse.linear_extrinsic(block(cb, 1), 1.0, zeros, zeros, sigma, 1.0, cb,
                                      block(cb, 1))) == 3
    for cls in (turbomp.TurboOptions, turbomp.ExperimentConfig):
        assert cls.__dataclass_params__.frozen, cls.__name__


def test_config_keys_are_pinned():
    """Every estimator option is declared once, in `TurboOptions`, and is a config key."""
    doc = dict(K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], lam=0.2, channel="exact",
               theta_H=1.0, theta_C=0.05)
    options = sorted(f.name for f in fields(turbomp.TurboOptions))
    keys = sorted(asdict(turbomp.ExperimentConfig.from_dict(doc)))
    assert options == TURBO_OPTIONS_FIELDS
    assert keys == CONFIG_KEYS
    assert set(options) <= set(keys)
    assert issubclass(turbomp.ExperimentConfig, turbomp.TurboOptions)
    for key in REMOVED_CONFIG_KEYS:
        with pytest.raises(turbomp.ConfigurationError, match="unknown"):
            turbomp.ExperimentConfig.from_dict({**doc, key: 1.0})


def test_harness_surface_the_benchmark_drives_is_pinned():
    """`bench/run.py` replays a trial as run_single_trial(config, point, snr, trial), and
    `bench/probe.py` and `bench/selftest.py` patch these harness globals (that trials call
    them through the module is `test_module_globals_are_the_patch_points_of_every_trial`)."""
    harness = turbomp.harness
    params = inspect.signature(harness.run_single_trial).parameters
    assert list(params) == ["config", "point_idx", "snr_db", "trial_idx"]
    assert list(inspect.signature(harness.run_roc).parameters) == [
        "config", "thresholds", "progress"]
    assert harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert harness.run_turbo_mp is turbomp.engine.run_turbo_mp
    assert harness.sample_channel is turbomp.channel.sample_channel
    assert harness.nmse is turbomp.metrics.nmse


def test_pilot_operators_take_only_the_forms_the_engine_runs():
    """apply_A takes one (K, Q, M) block, which it transforms in place; apply_A_adjoint takes
    (T*N, M) rows and a caller's out and spectrum blocks, and `lmmse.linear_extrinsic` an out
    block, none with a default.  Both operators keep the names that `bench/probe.py`'s
    PILOT_OPS spells, by which the probe wraps them and counts pilots.calls and
    pilots.adjoint_ms.  A vector or a (Q*K, M) matrix raises DimensionError."""
    codebook = turbomp.PilotCodebook
    assert list(inspect.signature(codebook.apply_A).parameters) == ["self", "x"]
    for fn, names in ((codebook.apply_A_adjoint, ["self", "y", "out", "spectrum"]),
                      (turbomp.lmmse.linear_extrinsic, ["spectrum", "v_pri", "fwd_pri", "resid",
                                                        "sigma", "weight", "codebook", "out"])):
        params = inspect.signature(fn).parameters
        assert list(params) == names, fn.__name__
        assert all(p.default is inspect.Parameter.empty for p in params.values()), fn.__name__
    for name in ("PilotCodebook.apply_A", "PilotCodebook.apply_A_adjoint"):
        owner, member = name.split(".")
        assert callable(getattr(getattr(turbomp, owner), member)), name

    cb = turbomp.build_codebook(K=16, N=4, T=2, Q=2, seed=0)
    for x in (np.zeros(cb.cols, dtype=complex), np.zeros((cb.cols, 2), dtype=complex)):
        with pytest.raises(turbomp.DimensionError):
            cb.apply_A(x)
    with pytest.raises(turbomp.DimensionError):
        cb.apply_A_adjoint(np.zeros(cb.rows, dtype=complex), block(cb, 1), block(cb, 1))
    with pytest.raises(turbomp.DimensionError):
        cb.mix_subcarriers(np.zeros((1, cb.N), dtype=complex), np.array([0]))


def test_dataclasses_holding_arrays_compare_and_hash_without_raising():
    """==, in and hash never raise on a public dataclass that holds arrays: one identified by
    an array compares by identity, and `BlockwiseBasis`, whose only array is derived, by
    (N, Q)."""
    def instances():
        basis = turbomp.BlockwiseBasis(N=8, Q=2)
        truth, real = turbomp.sample_blockwise_exact(64, 2, basis, 0.1, 1.0, 0.01, seed=1)
        cb = turbomp.build_codebook(64, 8, 2, 2, seed=1)
        priors = turbomp.PriorParams(theta_H=1.0, theta_C=0.01, sigma_w2=0.1, lam=0.1)
        result = turbomp.run_turbo_mp(forward(cb, truth.H), cb, priors,
                                      turbomp.TurboOptions(max_iters=2))
        batch = turbomp.denoiser.bg_denoise_batch(np.ones((64, 2, 2)), np.ones(2), 1.0, 0.1)
        profile = turbomp.load_pdp(turbomp.channel.example_pdp_path())
        return [cb, real, truth, result, batch, profile]

    for a, b in zip(instances(), instances()):
        assert a == a and a != b, type(a).__name__
        assert a in [b, a] and a not in [b]
        assert hash(a) == hash(a)
    basis = turbomp.BlockwiseBasis
    assert basis(8, 2) == basis(8, 2) != basis(8, 4) and basis(8, 2) in [basis(8, 2)]
    assert hash(basis(8, 2)) == hash(basis(8, 2))
