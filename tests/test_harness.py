"""Experiment orchestration, result export, and CLI behaviour."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from turbomp import (
    ConfigurationError,
    ExperimentConfig,
    ParameterError,
    blockwise_basis,
    build_codebook,
    emit_results,
    load_pdp,
    project_blockwise,
    run_experiment,
    run_roc,
    run_single_trial,
    sample_activity,
    sample_channel,
)
from turbomp.channel import example_pdp_path
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


class TestConfigValidation:
    def test_structural_errors(self):
        with pytest.raises(ConfigurationError):
            exact_config(Q=3)  # does not divide N
        with pytest.raises(ConfigurationError):
            exact_config(K=10)  # T*N > K in strict mode
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

    def test_estimator_options_rejected_at_construction(self):
        """Bad estimator options fail when the config is built, before any trial runs."""
        for bad in (dict(threshold=1.5), dict(damping=0), dict(max_iters=0),
                    dict(em_damping=1.5), dict(inner_h_updates=0), dict(rel_change_tol=0.0),
                    dict(em_slow_period=0)):
            with pytest.raises(ParameterError):
                exact_config(**bad)

    def test_removed_schedule_keys_are_unknown(self):
        for key in ("em_start_iter", "em_slow_start"):
            with pytest.raises(ConfigurationError, match="unknown"):
                exact_config(**{key: 1})

    def test_scalar_snr_promoted_to_list(self):
        cfg = exact_config(snr_db=5)
        assert cfg.snr_db == [5.0]


class TestObservationEquivalence:
    def test_physical_mixing_equals_operator_form(self):
        """Building the observation from the raw responses matches the
        decomposed coefficients-plus-mismatch route."""
        prof = load_pdp(example_pdp_path())
        for q in (2, 4):
            cb = build_codebook(K=200, N=72, T=2, Q=q, seed=q)
            basis = blockwise_basis(72, q)
            alpha = sample_activity(200, 0.1, seed=q + 10)
            real = sample_channel(prof, alpha, M=2, N=72, delta_f=15e3, seed=q + 20)
            truth = project_blockwise(real, basis)
            via_model = cb.mix_subcarriers(real.G)
            via_parts = cb.apply_A(truth.H) + cb.apply_B(truth.C) + cb.mix_subcarriers(truth.Delta)
            scale = np.linalg.norm(via_model)
            assert np.linalg.norm(via_model - via_parts) / scale < 1e-10


class TestTrialsAndAggregation:
    def test_replay_determinism(self):
        """Same (config, master_seed) reproduces every record; only the
        wall-clock timing fields may differ."""
        cfg = exact_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)

        def strip(d):
            return {k: v for k, v in d.items() if k != "wall_s"}

        for pa, pb in zip(a.points, b.points):
            assert strip(pa.aggregate) == strip(pb.aggregate)
            assert [strip(t) for t in pa.trials] == [strip(t) for t in pb.trials]

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

        def strip(d):
            return {k: v for k, v in d.items() if k != "wall_s"}

        for ps, pp in zip(serial.points, pooled.points):
            assert len(pp.trials) == 40
            assert [strip(t) for t in ps.trials] == [strip(t) for t in pp.trials]
            assert strip(ps.aggregate) == strip(pp.aggregate)

    def test_multipath_mode_runs(self):
        cfg = exact_config(channel="multipath", pdp_file=example_pdp_path(),
                           em=True, theta_H=None, theta_C=None, trials=2)
        result = run_experiment(cfg)
        assert result.points[0].aggregate["trials"] == 2


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

    def test_pinned_codebook_is_drawn_once(self, monkeypatch):
        """With pin_codebook every trial runs on the one codebook drawn for the point;
        without it each trial draws its own."""
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
        run_roc(exact_config(trials=3, pin_codebook=True), [0.5])
        assert len(drawn) == 1 and len(used) == 3
        assert all(cb is drawn[0] for cb in used)
        drawn.clear()
        run_roc(exact_config(trials=3), [0.5])
        assert len(drawn) == 3

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

    def test_roc_rejects_empty_grid(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["roc", "--config", cfg, "--points", "0", "--out", str(tmp_path / "roc")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "roc" / "roc.csv").exists()

    @pytest.mark.parametrize("text", ['{"K": 64,', "[1, 2]"])
    def test_malformed_config_json_is_an_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "res")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_roc_rejects_unparseable_thresholds(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli_main(["roc", "--config", cfg, "--thresholds", "0.2,x",
                         "--out", str(tmp_path / "roc")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "roc" / "roc.csv").exists()

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
