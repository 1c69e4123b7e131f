"""Experiment orchestration, result export, and CLI behaviour."""

import argparse
import csv
import json
import multiprocessing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from turbomp import (
    BlockwiseBasis,
    ConfigurationError,
    ExperimentConfig,
    ParameterError,
    build_codebook,
    emit_results,
    emit_roc,
    load_pdp,
    project_blockwise,
    run_experiment,
    run_roc,
    run_single_trial,
    sample_activity,
    sample_channel,
)
from turbomp import parallel
from turbomp.channel import example_pdp_path
from turbomp.cli import build_parser
from turbomp.cli import main as cli_main
from turbomp.harness import ExperimentResult


def exact_config(**overrides):
    doc = dict(
        K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], lam=0.2,
        channel="exact", theta_H=1.0, theta_C=0.05, em=False,
        trials=3, master_seed=1, max_iters=8,
    )
    doc.update(overrides)
    return ExperimentConfig.from_dict({("lambda" if k == "lam" else k): v
                                       for k, v in doc.items()})


MULTIPATH = dict(channel="multipath", em=True, theta_H=None, theta_C=None)
BAD_PDP_KINDS = ["directory", "missing", "undecodable"]


def bad_pdp_path(tmp_path, kind):
    """A power delay profile path that names a directory, no file, or bytes that are not text."""
    path = tmp_path / "bad.pdp"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"\xff\xfe 1 0\n")
    return str(path)


class TestConfigValidation:
    def test_structural_errors(self):
        with pytest.raises(ConfigurationError):
            exact_config(Q=3)  # does not divide N
        with pytest.raises(ConfigurationError):
            exact_config(K=10)  # T*N > K: fewer DFT rows than pilot rows
        with pytest.raises(ConfigurationError):
            exact_config(lam=1.0)
        with pytest.raises(ConfigurationError):
            exact_config(channel="time-domain")

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ExperimentConfig.from_dict({"K": 64, "N": 8, "T": 2, "Q": 2, "M": 2,
                                        "snr_db": [0], "lambda": 0.1, "typo": 1})
        with pytest.raises(ConfigurationError, match="missing"):
            ExperimentConfig.from_dict({"K": 64})

    def test_mode_requirements(self):
        with pytest.raises(ConfigurationError):
            exact_config(theta_H=None)
        with pytest.raises(ConfigurationError):
            exact_config(channel="multipath", pdp_file=None)
        with pytest.raises(ConfigurationError):
            exact_config(channel="multipath", pdp_file=example_pdp_path(),
                         em=False, sigma_w2=None)

    @pytest.mark.parametrize("kind", BAD_PDP_KINDS)
    def test_unreadable_pdp_rejected_at_construction(self, tmp_path, kind):
        with pytest.raises(ParameterError, match="cannot read power delay profile"):
            exact_config(pdp_file=bad_pdp_path(tmp_path, kind), **MULTIPATH)

    def test_estimator_options_rejected_at_construction(self):
        """Bad estimator options fail when the config is built, before any trial runs."""
        for bad in (dict(threshold=1.5), dict(max_iters=0), dict(rel_change_tol=0.0)):
            with pytest.raises(ParameterError):
                exact_config(**bad)

    def test_aliases_and_their_clash_with_the_field(self):
        """"lambda" and "em" still load; naming an alias next to its field is an error."""
        base = dict(K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], channel="exact",
                    theta_H=1.0, theta_C=0.05)
        for both in ({"lambda": 0.05, "lam": 0.3},
                     {"lam": 0.05, "em": True, "em_enabled": False}):
            with pytest.raises(ConfigurationError, match="both"):
                ExperimentConfig.from_dict({**base, **both})
        cfg = exact_config()
        assert cfg.lam == 0.2 and cfg.em_enabled is False

    def test_removed_schedule_keys_are_unknown(self):
        for key in ("em_start_iter", "em_slow_start"):
            with pytest.raises(ConfigurationError, match="unknown"):
                exact_config(**{key: 1})

    def test_scalar_snr_promoted_to_a_tuple(self):
        cfg = exact_config(snr_db=5)
        assert cfg.snr_db == (5.0,)

    def test_snrs_cannot_be_edited_after_the_check(self):
        """snr_db is a tuple, so a checked config's SNRs cannot be edited in place, and a
        config hashes as a frozen dataclass should."""
        cfg = exact_config(snr_db=[5.0, 10.0])
        with pytest.raises(TypeError):
            cfg.snr_db[0] = float("nan")
        assert hash(cfg) == hash(exact_config(snr_db=(5, 10)))

    @pytest.mark.parametrize("bad", [
        dict(snr_db="10"), dict(snr_db=["10"]), dict(snr_db=True),
        dict(em="false"), dict(em=1), dict(K=200.5), dict(K="200"), dict(K=True),
        dict(trials=2.5), dict(lam="0.2"), dict(theta_H="1"), dict(channel=3),
        dict(pdp_file=7), dict(min_error_events=1.0), dict(master_seed=1.5),
        dict(snr_db=[float("nan")]), dict(snr_db=[10.0, float("inf")]),
        dict(pilot_power=float("inf")), dict(pilot_power=float("nan")),
        dict(delta_f=float("nan")), dict(rel_change_tol=float("inf")),
        # integers beyond the float range, which every trial would fail to convert
        dict(theta_H=10**400), dict(theta_C=10**400), dict(sigma_w2=10**400),
        dict(delta_f=-10**400), dict(lam=10**400), dict(snr_db=[10**400]),
    ])
    def test_ill_typed_values_rejected_at_construction(self, bad):
        with pytest.raises(ConfigurationError, match="must"):
            exact_config(**bad)

    def test_any_numeric_type_is_a_number(self):
        cfg = exact_config(K=np.int64(64), theta_H=1, lam=np.float64(0.2), snr_db=(5, 10.5))
        assert cfg.snr_db == (5.0, 10.5) and all(type(s) is float for s in cfg.snr_db)

    @pytest.mark.parametrize("bad", [
        dict(theta_H=0.0), dict(theta_H=-1.0), dict(theta_H=float("nan")),
        dict(theta_H=float("inf")), dict(theta_C=-0.1), dict(theta_C=0.0),
        dict(theta_C=-0.1, em=True), dict(sigma_w2=0.0), dict(sigma_w2=-1.0),
        dict(sigma_w2=-1.0, em=True), dict(min_error_events=0), dict(min_error_events=-3),
        dict(K=15),  # pilots need T*N = 16 distinct rows
        dict(snr_db=[]), dict(pilot_power=0.0), dict(pilot_power=-1.0),
        dict(master_seed=-1), dict(snr_db=[-4000.0]), dict(snr_db=[4000.0]),
        dict(snr_db=[10.0, 4000.0], em=True), dict(snr_db=[-3000.0], pilot_power=1e10),
        dict(snr_db=[-10**400]),
    ])
    def test_out_of_range_values_rejected_at_construction(self, bad):
        with pytest.raises(ConfigurationError):
            exact_config(**bad)

    def test_zero_slope_variance_runs_with_em(self):
        """The exact sampler allows theta_C = 0, and with EM on the estimator never uses it."""
        result = run_experiment(exact_config(theta_C=0.0, em=True, trials=1))
        assert result.points[0].aggregate["trials"] == 1


class TestObservationEquivalence:
    def test_physical_mixing_equals_operator_form(self):
        """Building the observation from the raw responses matches the
        decomposed coefficients-plus-mismatch route."""
        prof = load_pdp(example_pdp_path())
        for q in (2, 4):
            cb = build_codebook(K=200, N=72, T=2, Q=q, seed=q)
            basis = BlockwiseBasis(72, q)
            alpha = sample_activity(200, 0.1, seed=q + 10)
            real = sample_channel(prof, alpha, M=2, N=72, delta_f=15e3, seed=q + 20)
            truth = project_blockwise(real, basis)
            via_model = cb.mix_subcarriers(real.G_active, real.active)
            via_parts = (cb.apply_A(truth.H) + cb.D_diag[:, None] * cb.apply_A(truth.C)
                         + cb.mix_subcarriers(truth.Delta, real.active))
            scale = np.linalg.norm(via_model)
            assert np.linalg.norm(via_model - via_parts) / scale < 1e-10


def strip(record):
    return {k: v for k, v in record.items() if k != "wall_s"}


class TestTrialsAndAggregation:
    def test_replay_determinism(self):
        """Same (config, master_seed) reproduces every record; only the
        wall-clock timing fields may differ."""
        cfg = exact_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)

        for pa, pb in zip(a.points, b.points):
            assert strip(pa.aggregate) == strip(pb.aggregate)
            assert [strip(t) for t in pa.trials] == [strip(t) for t in pb.trials]

    def test_every_pooled_record_replays_alone(self):
        """Each record of a two-point, two-worker run with an error target equals the record
        of run_single_trial(config, point, snr, trial) run alone, wall_s aside."""
        cfg = exact_config(snr_db=[0.0, 10.0], trials=20, min_error_events=3, workers=2)
        result = run_experiment(cfg)
        assert result.points[0].aggregate["trials"] < 20  # the error target stopped it
        for point_idx, point in enumerate(result.points):
            for record in point.trials:
                alone = run_single_trial(cfg, point_idx, point.snr_db, record["trial"])
                assert strip(alone) == strip(record)

    def test_trial_record_fields(self):
        cfg = exact_config(trials=1)
        rec = run_single_trial(cfg, 0, 10.0, 0)
        for key in ("nmse", "p_miss", "p_false", "pe", "iterations", "lambda_hat"):
            assert key in rec

    def test_aggregates_invariant_to_trial_order(self):
        from turbomp.harness import _aggregate_point

        cfg = exact_config(trials=4)
        result = run_experiment(cfg)
        records = result.points[0].trials
        shuffled = [records[i] for i in (2, 0, 3, 1)]
        agg1 = _aggregate_point(cfg, 10.0, records, wall=0.0)
        agg2 = _aggregate_point(cfg, 10.0, shuffled, wall=0.0)
        assert agg1 == agg2

    def test_min_error_events_stops_early(self):
        cfg = exact_config(trials=50, min_error_events=1, snr_db=[-30.0])
        result = run_experiment(cfg)
        agg = result.points[0].aggregate
        assert agg["miss_events"] + agg["false_events"] >= 1
        assert agg["trials"] < 50

    def test_worker_pool_matches_serial(self):
        serial = run_experiment(exact_config(trials=4, workers=1))
        pooled = run_experiment(exact_config(trials=4, workers=2))
        assert serial.points[0].aggregate["nmse_mean"] == pooled.points[0].aggregate["nmse_mean"]
        assert serial.points[0].aggregate["pe"] == pooled.points[0].aggregate["pe"]

    def test_error_target_pool_matches_serial_with_one_pool_per_point(self, monkeypatch):
        """With min_error_events, two workers give the serial records and start one
        process pool per point, however many 16-trial chunks the point runs."""
        import turbomp.harness as harness

        started = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        cfg = dict(trials=40, min_error_events=10**6, snr_db=[0.0, 10.0], max_iters=4)
        serial = run_experiment(exact_config(workers=1, **cfg))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        pooled = run_experiment(exact_config(workers=2, **cfg))
        assert len(started) == 2
        for ps, pp in zip(serial.points, pooled.points):
            assert len(pp.trials) == 40
            assert [strip(t) for t in ps.trials] == [strip(t) for t in pp.trials]
            assert strip(ps.aggregate) == strip(pp.aggregate)

    def test_multipath_mode_runs(self):
        cfg = exact_config(channel="multipath", pdp_file=example_pdp_path(),
                           em=True, theta_H=None, theta_C=None, trials=2)
        result = run_experiment(cfg)
        assert result.points[0].aggregate["trials"] == 2

    def test_pool_is_capped_at_the_available_cpus(self, monkeypatch):
        """However many workers a config asks for, the pool has at most one process per CPU
        this process may use, and its initializer turns the block-pass split off; a fake pool
        records its size and maps serially."""
        import turbomp.harness as harness

        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer):
                assert initializer is parallel.disable
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for workers in (1, 500, 2):  # one worker starts no pool
            run_experiment(exact_config(trials=3, workers=workers))
        run_roc(exact_config(trials=3, workers=500), [0.5])
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        for cpus in (2, None):  # os.cpu_count() may not know, and one CPU starts no pool
            monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
            run_roc(exact_config(trials=1, workers=500), [0.5])
        assert sizes == [3, 2, 3, 2]

    @pytest.mark.parametrize("roc", [False, True])
    def test_one_cpu_runs_in_this_process(self, monkeypatch, roc):
        """Where this process may use one CPU, workers > 1 starts no pool, which would only
        pickle every trial into a child, and gives the serial records."""
        import turbomp.harness as harness

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        def run(workers):
            config = exact_config(trials=3, workers=workers)
            if roc:
                return run_roc(config, [0.2, 0.5])
            return [strip(t) for t in run_experiment(config).points[0].trials]

        serial = run(1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(parallel, "cpus", lambda: 1)
        assert run(2) == serial

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit a patched module global")
    def test_module_globals_are_the_patch_points_of_every_trial(self, monkeypatch):
        """The harness calls run_single_trial, sample_channel and nmse through its module
        globals, so a wrapper set there runs once per trial, and pooled workers run it too."""
        import turbomp.harness as harness

        calls = {"run_single_trial": 0, "sample_channel": 0, "nmse": 0}

        def wrap(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = original(*args, **kwargs)
                if name == "run_single_trial":
                    out["wrapped"] = True
                return out
            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, wrap(name, getattr(harness, name)))
        cfg = dict(pdp_file=example_pdp_path(), trials=2, **MULTIPATH)
        serial = run_experiment(exact_config(workers=1, **cfg))
        assert calls == dict.fromkeys(calls, 2)
        assert all(t["wrapped"] for t in serial.points[0].trials)
        pooled = run_experiment(exact_config(workers=2, **cfg))
        assert [t.get("wrapped") for t in pooled.points[0].trials] == [True, True]


class TestEmitResults:
    def test_csv_and_json_round_trip(self, tmp_path):
        cfg = exact_config(snr_db=[0.0, 10.0], trials=2)
        result = run_experiment(cfg)
        paths = emit_results(result, tmp_path, stem="out")
        with open(paths["csv"]) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert float(rows[1]["snr_db"]) == 10.0
        with open(paths["json"]) as f:
            doc = json.load(f)
        ' aggregates reload bit-exactly through JSON '
        for point, loaded in zip(result.points, doc["points"]):
            assert loaded["aggregate"] == point.aggregate

    def test_every_estimator_option_reaches_the_engine_and_the_json(self, tmp_path, monkeypatch):
        """A config's TurboOptions fields are the options each trial runs with, and the
        config written to the results JSON reloads to an equal config."""
        from turbomp import TurboOptions, harness

        options = dict(max_iters=7, rel_change_tol=1e-5, em_enabled=True,
                       em_sigma_correction=True, threshold=0.4)
        defaults = TurboOptions()
        assert set(options) == {f.name for f in fields(TurboOptions)}
        assert all(getattr(defaults, k) != v for k, v in options.items())
        cfg = ExperimentConfig.from_dict(dict(
            K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], lam=0.2, channel="exact",
            theta_H=1.0, theta_C=0.05, trials=2, master_seed=1, **options,
        ))

        seen = []

        def recording_run(Y, codebook, priors, opts, *args, **kwargs):
            seen.append(opts)
            return run_frame(Y, codebook, priors, opts, *args, **kwargs)

        run_frame = harness.run_turbo_mp
        monkeypatch.setattr(harness, "run_turbo_mp", recording_run)
        result = run_experiment(cfg)
        assert len(seen) == 2
        for opts in seen:
            assert {k: getattr(opts, k) for k in options} == options
        paths = emit_results(result, tmp_path)
        doc = json.loads(Path(paths["json"]).read_text())
        assert ExperimentConfig.from_dict(doc["config"]) == cfg

    def test_a_numpy_scalar_config_writes_its_json(self, tmp_path):
        """numpy scalars pass the checks and are stored as the annotated Python types, so the
        finished run's results JSON is written and reloads to an equal config."""
        cfg = exact_config(K=np.int64(64), trials=np.int64(1), em=np.True_, lam=np.float64(0.2),
                           snr_db=[np.float64(10.0)])
        assert type(cfg.K) is int and type(cfg.trials) is int and type(cfg.em_enabled) is bool
        assert type(cfg.lam) is float and type(cfg.snr_db[0]) is float
        paths = emit_results(run_experiment(cfg), tmp_path)
        doc = json.loads(Path(paths["json"]).read_text())
        assert ExperimentConfig.from_dict(doc["config"]) == cfg

    def test_json_is_strict_where_a_trial_has_no_active_device(self, tmp_path):
        """A trial with no active device has no NMSE: the results JSON writes null there, and
        a reader that rejects NaN and Infinity tokens reads the file."""
        result = run_experiment(exact_config(lam=0.01, trials=3, master_seed=1))
        skipped = [t for t in result.points[0].trials if t["skipped_nmse"]]
        assert skipped

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        path = emit_results(result, tmp_path)["json"]
        doc = json.loads(Path(path).read_text(), parse_constant=reject)
        for trial in doc["points"][0]["trials"]:
            assert (trial["nmse"] is None) == trial["skipped_nmse"]

    def test_empty_results_give_header_only_csv(self, tmp_path):
        cfg = exact_config()
        paths = emit_results(ExperimentResult(config=cfg, points=[]), tmp_path)
        lines = Path(paths["csv"]).read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("snr_db,")


class TestRoc:
    def test_rows_and_monotonicity(self):
        cfg = exact_config(trials=4)
        rows = run_roc(cfg, [0.1, 0.5, 0.9])
        assert [r["threshold"] for r in rows] == [0.1, 0.5, 0.9]
        p_miss = [r["p_miss"] for r in rows]
        p_false = [r["p_false"] for r in rows]
        assert all(b >= a for a, b in zip(p_miss, p_miss[1:]))
        assert all(b <= a for a, b in zip(p_false, p_false[1:]))

    def test_bad_thresholds(self):
        with pytest.raises(ParameterError):
            run_roc(exact_config(), [0.5, 0.1])

    def test_empty_thresholds_rejected_before_any_trial(self, monkeypatch):
        from turbomp import harness

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_turbo_mp", no_trial)
        for empty in ([], np.array([])):
            with pytest.raises(ParameterError):
                run_roc(exact_config(), empty)

    def test_each_trial_draws_its_own_codebook(self, monkeypatch):
        """Every trial runs on a codebook of its own, drawn from its own stream."""
        from turbomp import harness

        drawn, used = [], []

        def counting_build(*args, **kwargs):
            drawn.append(build_codebook(*args, **kwargs))
            return drawn[-1]

        def recording_run(Y, codebook, *args, **kwargs):
            used.append(codebook)
            return run_frame(Y, codebook, *args, **kwargs)

        run_frame = harness.run_turbo_mp
        monkeypatch.setattr(harness, "build_codebook", counting_build)
        monkeypatch.setattr(harness, "run_turbo_mp", recording_run)
        run_roc(exact_config(trials=3), [0.5])
        assert len(drawn) == 3 and all(cb is d for cb, d in zip(used, drawn))
        selections = {cb.selections.tobytes() for cb in drawn}
        assert len(selections) == 3

    def test_worker_pool_matches_serial_with_one_pool(self, monkeypatch):
        """With two workers the ROC rows equal the serial rows, from one process pool."""
        import turbomp.harness as harness

        started = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        thresholds = [0.1, 0.3, 0.5, 0.7, 0.9]
        serial = run_roc(exact_config(trials=6, workers=1), thresholds)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        pooled = run_roc(exact_config(trials=6, workers=2), thresholds)
        assert len(started) == 1
        assert pooled == serial


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        doc = dict(K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], **{"lambda": 0.2},
                   channel="exact", theta_H=1.0, theta_C=0.05, em=False,
                   trials=2, master_seed=1, max_iters=6)
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_flags_types_defaults_and_required_are_pinned(self):
        """Every subcommand keeps its option strings, types, defaults and required flags."""
        shared = {"--config": (None, None, True), "--seed": (int, None, False),
                  "--trials": (int, None, False), "--out": (None, "results", False)}
        want = {
            "run": {**shared, "--workers": (int, None, False), "--stem": (None, "results", False)},
            "sweep": {**shared, "--param": (None, None, False), "--stem": (None, "sweep", False)},
            "roc": {**shared, "--snr": (float, None, False), "--thresholds": (None, None, False),
                    "--points": (int, 25, False), "--stem": (None, "roc", False)},
        }
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        got = {name: {" ".join(a.option_strings): (a.type, a.default, a.required)
                      for a in sub._actions if a.dest != "help"}
               for name, sub in commands.items()}
        assert got == want

    def test_run_command(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "res")])
        assert code == 0
        assert (tmp_path / "res" / "results.csv").exists()
        assert (tmp_path / "res" / "results.json").exists()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, Q=3)
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "res")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path):
        cfg = self._write_config(tmp_path)
        code = cli_main([
            "sweep", "--config", cfg, "--param", "M=1,2",
            "--trials", "1", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 0
        names = {p.name for p in (tmp_path / "sweep").glob("*.csv")}
        assert names == {"sweep_M1.csv", "sweep_M2.csv"}

    @pytest.mark.parametrize("params", [
        ["--param", "M=1", "--param", "M=2"],  # the first M was dropped
        ["--param", "lambda=0.05,5e-2"],  # both runs wrote sweep_lambda0.05
    ], ids=["repeated_key", "shared_stem"])
    def test_sweep_that_would_lose_a_run_is_an_error_before_any_trial(
            self, tmp_path, capsys, monkeypatch, params):
        """A key given twice, or two grid points with one output stem, exits 2 with one error
        line before the first trial."""
        import turbomp.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
        cfg = self._write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli_main(["sweep", "--config", cfg, *params, "--out", str(out)])
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_roc_rejects_empty_grid(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        for points in ("0", "-1"):
            code = cli_main(["roc", "--config", cfg, "--points", points,
                             "--out", str(tmp_path / "roc")])
            assert code == 2
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "roc" / "roc.csv").exists()

    @pytest.mark.parametrize("snr", [["--snr", "inf"], ["--snr", "nan"], ["--snr=-inf"]])
    def test_roc_rejects_a_snr_that_is_not_finite(self, tmp_path, capsys, snr):
        cfg = self._write_config(tmp_path)
        code = cli_main(["roc", "--config", cfg, *snr, "--out", str(tmp_path / "roc")])
        assert code == 2
        assert "snr_db must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "roc").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-1"], ["sweep", "--param", "master_seed=0,-1"],
        ["roc", "--seed=-1"], ["roc", "--snr", "-4000"], ["roc", "--snr", "4000"],
        ["sweep", "--param", "snr_db=10,4000"],
    ])
    def test_seeds_and_snrs_that_crash_every_trial_are_errors_before_any_output(
            self, tmp_path, capsys, argv):
        """A negative master_seed, or an SNR whose noise variance overflows or underflows,
        exits 2 with one error line and writes nothing."""
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        code = cli_main([*argv, "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_roc_snr_replaces_the_config_snrs(self, tmp_path):
        """`roc --snr X` writes the rows of run_roc on the config with snr_db=[X]."""
        cfg = self._write_config(tmp_path, snr_db=[10.0, 20.0], trials=3)
        code = cli_main(["roc", "--config", cfg, "--snr", "5", "--thresholds", "0.2,0.5,0.8",
                         "--out", str(tmp_path / "cli")])
        assert code == 0
        config = ExperimentConfig.from_dict({**json.loads(Path(cfg).read_text()),
                                             "snr_db": [5.0]})
        rows = run_roc(config, [0.2, 0.5, 0.8])
        assert {r["snr_db"] for r in rows} == {5.0}
        want = emit_roc(rows, tmp_path / "api")
        assert (tmp_path / "cli" / "roc.csv").read_bytes() == Path(want).read_bytes()

    @pytest.mark.parametrize("text", ['{"K": 64,', "[1, 2]"])
    def test_malformed_config_json_is_an_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "res")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_config_is_an_error(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "res")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", BAD_PDP_KINDS)
    def test_unreadable_pdp_is_an_error_before_any_output(self, tmp_path, capsys, kind):
        cfg = self._write_config(tmp_path, pdp_file=bad_pdp_path(tmp_path, kind), **MULTIPATH)
        for command in (["run"], ["sweep", "--param", "M=1,2"], ["roc"]):
            out = tmp_path / command[0]
            code = cli_main([*command, "--config", cfg, "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "bad.pdp" in err
            assert not out.exists()

    @pytest.mark.parametrize("command, runner", [
        (["run"], "run_experiment"), (["sweep", "--param", "M=1,2"], "run_experiment"),
        (["roc"], "run_roc")])
    def test_an_out_that_cannot_be_created_is_an_error_before_any_trial(
            self, tmp_path, capsys, monkeypatch, command, runner):
        """--out is created once the config has loaded, so a path under a regular file exits
        2 with one error line before the first trial, not after the last."""
        import turbomp.cli as cli

        calls = []
        monkeypatch.setattr(cli, runner, lambda *args, **kwargs: calls.append(args))
        cfg = self._write_config(tmp_path)
        (tmp_path / "blocker").write_text("")
        code = cli_main([*command, "--config", cfg, "--out", str(tmp_path / "blocker" / "res")])
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "blocker" in err

    def test_sweep_override_wins_whichever_spelling(self, tmp_path):
        """A --param beats the file's key when one names the field and the other its alias."""
        aliased = self._write_config(tmp_path)  # "lambda" and "em"
        named = tmp_path / "named.json"  # "lam" and "em_enabled", as results JSON holds them
        named.write_text(json.dumps(
            asdict(ExperimentConfig.from_dict(json.loads(Path(aliased).read_text())))))
        cases = ((str(named), "lambda=0.1,0.3", "lam", [0.1, 0.3]),
                 (aliased, "lam=0.1,0.3", "lam", [0.1, 0.3]),
                 (str(named), "em=true,false", "em_enabled", [False, True]),
                 (aliased, "em_enabled=true,false", "em_enabled", [False, True]))
        for idx, (cfg, param, key, want) in enumerate(cases):
            out = tmp_path / f"sweep{idx}"
            code = cli_main(["sweep", "--config", cfg, "--param", param, "--trials", "1",
                             "--out", str(out)])
            assert code == 0
            assert sorted(json.loads(p.read_text())["config"][key]
                          for p in out.glob("*.json")) == want

    def test_roc_rejects_unparseable_thresholds(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["roc", "--config", cfg, "--thresholds", "0.2,x",
                         "--out", str(tmp_path / "roc")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "roc" / "roc.csv").exists()

    @pytest.mark.parametrize("bad", [
        dict(snr_db="10"), dict(em="false"), dict(K=200.5), dict(trials=2.5), dict(K="200"),
        dict(theta_H=-1.0), dict(theta_C=0.0), dict(sigma_w2=0.0), dict(min_error_events=0),
        dict(rel_change_tol=float("inf")), dict(theta_H=10**400), dict(theta_C=10**400),
        dict(sigma_w2=10**400), dict(delta_f=10**400),
    ])
    def test_run_rejects_ill_typed_and_out_of_range_values(self, tmp_path, capsys, bad):
        cfg = self._write_config(tmp_path, **bad)
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "res")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("param", ["snr_db=abc", "K=200.5", "em=no", "theta_H=-1"])
    def test_sweep_rejects_ill_typed_and_out_of_range_values(self, tmp_path, capsys, param):
        cfg = self._write_config(tmp_path)
        code = cli_main(["sweep", "--config", cfg, "--param", param,
                         "--out", str(tmp_path / "sweep")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "sweep").exists()

    def test_sweep_rejects_empty_param_value(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["sweep", "--config", cfg, "--param", "M=1,2,",
                         "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_roc_command(self, tmp_path):
        cfg = self._write_config(tmp_path)
        code = cli_main([
            "roc", "--config", cfg, "--thresholds", "0.2,0.8",
            "--trials", "2", "--out", str(tmp_path / "roc"),
        ])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "roc" / "roc.csv").read_text().splitlines()))
        assert len(rows) == 2
