"""Iteration schedule, equivariance, and convergence behaviour of the engine."""

import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import turbomp
from turbomp import engine
from turbomp import (
    BlockwiseBasis,
    ConfigurationError,
    DimensionError,
    ExperimentConfig,
    NumericsError,
    ParameterError,
    PriorParams,
    TurboOptions,
    build_codebook,
    run_experiment,
    run_turbo_mp,
    sample_blockwise_exact,
)
from turbomp.activity import fuse
from turbomp.channel import example_pdp_path
from turbomp.em import SLOW_PERIOD

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_golden import CASES, replay  # noqa: E402
from oracles import adjoint, forward, moment_estimate, observation_variance  # noqa: E402


def golden_frame(case):
    """The stored inputs of one golden frame."""
    with np.load(GOLDEN / "engine_golden.npz") as data:
        return {key.split("__", 1)[1]: data[key] for key in data.files
                if key.startswith(case + "__")}


def small_config(**overrides):
    """A valid exact-channel experiment config, K=64."""
    return ExperimentConfig(**{**dict(K=64, N=8, T=2, Q=2, M=2, snr_db=[10.0], lam=0.2,
                                      channel="exact", theta_H=1.0, theta_C=0.05), **overrides})


def make_instance(seed=0, K=64, N=8, T=2, Q=2, M=2, lam=0.2, theta_H=1.0,
                  theta_C=0.05, sn2=0.05):
    basis = BlockwiseBasis(N, Q)
    truth, real = sample_blockwise_exact(K, M, basis, lam, theta_H, theta_C, seed=seed)
    cb = build_codebook(K, N, T, Q, seed=seed + 10_000)
    rng = np.random.default_rng(seed + 20_000)
    noise = np.sqrt(sn2 / 2) * (
        rng.standard_normal((cb.rows, M)) + 1j * rng.standard_normal((cb.rows, M))
    )
    Y = cb.mix_subcarriers(real.G_active, real.active) + noise
    priors = PriorParams(theta_H=theta_H, theta_C=theta_C, sigma_w2=sn2, lam=lam)
    return Y, cb, priors, real, basis, truth


class TestSchedule:
    @pytest.mark.parametrize("em", [False, True])
    def test_call_order_per_iteration(self, monkeypatch, em):
        """Every iteration runs the mean branch twice, then the slope branch, then the EM
        refresh when EM is enabled."""
        Y, cb, priors, *_ = make_instance()
        branch, em_schedule, calls = engine._branch, engine.em_schedule, []

        def recorded_branch(*args):
            calls.append("h" if np.isscalar(args[5]) else "c")  # weight 1 or D
            return branch(*args)

        def recorded_em(*args):
            calls.append("EM")
            return em_schedule(*args)

        monkeypatch.setattr(engine, "_branch", recorded_branch)
        monkeypatch.setattr(engine, "em_schedule", recorded_em)
        opts = TurboOptions(max_iters=3, em_enabled=em, rel_change_tol=1e-300)
        assert run_turbo_mp(Y, cb, priors, opts).iterations == 3
        assert calls == (["h", "h", "c"] + ["EM"] * em) * 3

    def test_zero_observation_collapses_toward_inactive(self):
        """All-zero measurements leave zero estimates and suppress the
        activity posterior below the prior after a single iteration."""
        cb = build_codebook(64, 8, 2, 2, seed=1)
        priors = PriorParams(theta_H=1.0, theta_C=0.05, sigma_w2=0.1, lam=0.2)
        Y = np.zeros((cb.rows, 2), dtype=complex)
        res = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=1))
        assert np.all(res.H == 0) and np.all(res.C == 0)
        assert np.all(res.lambda_D_post < 0.2)

    def test_stops_on_small_relative_change(self):
        Y, cb, priors, *_ = make_instance(seed=3, K=200, N=24, T=8, Q=4, M=4,
                                          lam=0.05, theta_C=0.01, sn2=0.01)
        res = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=50, rel_change_tol=1e-6))
        assert res.converged and res.iterations < 50


class TestEquivariance:
    def test_antenna_permutation(self):
        Y, cb, priors, *_ = make_instance(seed=5, M=4)
        perm = [2, 0, 3, 1]
        res = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=6))
        res_p = run_turbo_mp(Y[:, perm], cb, priors, TurboOptions(max_iters=6))
        np.testing.assert_allclose(res_p.H, res.H[:, perm], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res_p.C, res.C[:, perm], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res_p.lambda_D_post, res.lambda_D_post,
                                   rtol=1e-9, atol=1e-12)

    def test_device_permutation_with_matching_codebook(self):
        """Relabeling devices (and the pilot columns with them) relabels the
        outputs identically."""
        Y, cb, priors, *_ = make_instance(seed=6, M=2)
        rng = np.random.default_rng(0)
        perm = rng.permutation(cb.K)
        wrapped = _DevicePermutedCodebook(cb, perm)
        res = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=5))
        res_p = run_turbo_mp(Y, wrapped, priors, TurboOptions(max_iters=5))
        H = res.H.reshape(cb.K, cb.Q, 2)
        H_p = res_p.H.reshape(cb.K, cb.Q, 2)
        np.testing.assert_allclose(H_p, H[perm], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(res_p.lambda_D_post, res.lambda_D_post[perm],
                                   rtol=1e-9, atol=1e-12)

    def test_bit_identical_reruns(self):
        Y, cb, priors, *_ = make_instance(seed=7)
        a = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=8))
        b = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=8))
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.lambda_D_post, b.lambda_D_post)


class TestConvergenceQuality:
    def test_nmse_trace_nonincreasing_late(self):
        """Reconstruction error keeps improving (or holds, within 0.1 dB of
        plateau jitter) after the first few iterations in >= 95% of seeds."""
        ok = 0
        seeds = 60
        for seed in range(seeds):
            Y, cb, priors, real, basis, _ = make_instance(
                seed=seed, K=200, N=24, T=8, Q=4, M=4, lam=0.05,
                theta_C=0.01, sn2=0.01,
            )
            res = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=12),
                               truth=(real, basis))
            vals = [row["nmse_db"] for row in res.diagnostics.rows]
            tail = vals[2:]
            if all(b <= a + 0.1 for a, b in zip(tail, tail[1:])):
                ok += 1
        assert ok / seeds >= 0.95

    def test_activity_recovered_at_high_snr(self):
        Y, cb, priors, real, *_ = make_instance(seed=11, K=200, N=24, T=8, Q=4,
                                                M=4, lam=0.05, theta_C=0.01, sn2=0.01)
        res = run_turbo_mp(Y, cb, priors, TurboOptions())
        np.testing.assert_array_equal(res.activity, real.activity)


def multipath_point(snr_db, trials, master_seed, **options):
    """One point of the paper's multipath set-up (K=1000, M=8, lambda=0.05), EM from a blind start."""
    config = ExperimentConfig(K=1000, N=72, T=8, Q=4, M=8, lam=0.05, snr_db=[snr_db],
                              pdp_file=example_pdp_path(), trials=trials,
                              master_seed=master_seed, **options)
    return run_experiment(config).points[0]


class TestStoppingRule:
    @pytest.mark.parametrize("snr_db", [60.0, 30.0])
    def test_high_snr_frames_converge(self, snr_db):
        """With the default noise update and tolerance, high-SNR frames stop well
        before the 50-iteration cap instead of running into it."""
        trials = multipath_point(snr_db, 8, 21).trials
        assert sum(r["converged"] for r in trials) >= 7

    @pytest.mark.parametrize("snr_db, options", [
        (-15.0, dict(em_sigma_correction=True, max_iters=15)),  # criterion 08's config
        (-15.0, dict(max_iters=15)),
        (60.0, {}),
    ])
    def test_default_tolerance_keeps_accuracy(self, snr_db, options):
        """Stopping at the default tolerance costs under 0.02 dB of pooled NMSE
        against 1e-6 and changes no detection decision count."""
        stopped = multipath_point(snr_db, 16, 2026, **options).aggregate
        tight = multipath_point(snr_db, 16, 2026, rel_change_tol=1e-6, **options).aggregate
        assert abs(stopped["nmse_db"] - tight["nmse_db"]) < 0.02
        assert stopped["miss_events"] == tight["miss_events"]
        assert stopped["false_events"] == tight["false_events"]


class TestFailureModes:
    def test_non_finite_observation_aborts_with_trace(self):
        Y, cb, priors, *_ = make_instance(seed=8)
        Y[0, 0] = np.nan
        with pytest.raises(NumericsError) as excinfo:
            run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=2))
        assert excinfo.value.diagnostics is not None

    @pytest.mark.parametrize("em", [False, True])
    @pytest.mark.parametrize("target", ["mean", "variance"])
    def test_non_finite_slope_message_aborts_before_em(self, monkeypatch, target, em):
        """A NaN leaving the slope branch at iteration 2, in its mean and both forward
        products (as a NaN in x_und gives) or in its variance, raises NumericsError naming
        that branch's message before EM reads it, with iteration 1's diagnostics row."""
        Y, cb, priors, *_ = make_instance(seed=3)
        branch, slope_calls = engine._branch, []

        def poisoned(*args):
            out = list(branch(*args))  # x_new, v_new, fwd_new, fwd_ext, den, 1/alpha, beta
            slope_calls.append(not np.isscalar(args[5]))  # weight D: the slope branch
            if sum(slope_calls) == 2 and slope_calls[-1]:
                for i in ((0, 2, 3) if target == "mean" else (1,)):
                    out[i] = out[i].copy()
                    out[i].flat[0] = np.nan
            return tuple(out)

        monkeypatch.setattr(engine, "_branch", poisoned)
        with pytest.raises(NumericsError, match="c_pri|v_c") as excinfo:
            run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=5, em_enabled=em))
        assert "h_pri" not in str(excinfo.value)
        assert len(excinfo.value.diagnostics.rows) == 1

    def test_dimension_mismatch(self):
        Y, cb, priors, *_ = make_instance(seed=9)
        with pytest.raises(DimensionError):
            run_turbo_mp(Y[:-1], cb, priors)
        with pytest.raises(DimensionError):  # one antenna is a (T*N, 1) matrix, not a vector
            run_turbo_mp(Y[:, 0], cb, priors)

    def test_option_validation(self):
        for bad in (dict(max_iters=0), dict(max_iters=2.5), dict(rel_change_tol=0.0),
                    dict(rel_change_tol=float("inf")), dict(rel_change_tol=float("nan")),
                    dict(threshold=1.0), dict(em_enabled="no"), dict(em_sigma_correction=1),
                    dict(max_iters=True), dict(rel_change_tol="1e-3"), dict(threshold=None),
                    dict(rel_change_tol=True), dict(threshold=False)):
            with pytest.raises(ParameterError):
                TurboOptions(**bad)
        assert TurboOptions(em_enabled=np.True_, max_iters=np.int64(3)).em_enabled

    @pytest.mark.parametrize("opts", [TurboOptions(max_iters=3), small_config(max_iters=3)],
                             ids=["TurboOptions", "ExperimentConfig"])
    def test_options_are_frozen(self, opts):
        """No field of the options or of a config can be edited after it was checked."""
        for f in dataclasses.fields(opts):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opts, f.name, getattr(opts, f.name))

    @pytest.mark.parametrize("opts, name, error", [
        (TurboOptions(), "max_iters", ParameterError),
        (small_config(snr_db=10.0), "trials", ConfigurationError)],
        ids=["TurboOptions", "ExperimentConfig"])
    def test_replace_checks_again(self, opts, name, error):
        """`dataclasses.replace` builds a new object, which is checked as any other."""
        assert dataclasses.replace(opts) == opts
        with pytest.raises(error, match=name):
            dataclasses.replace(opts, **{name: 0})


class TestFusedActivity:
    def test_cross_priors_are_the_evidence_and_em_posterior_is_bitwise_fused(self, monkeypatch):
        """The engine hands each denoiser the rate priors.lam and the other branch's evidence
        array itself as its cross prior (neutral zero evidence before the first slope pass), and
        EM the very denoiser outputs; EM's activity posterior, which `em_schedule` fuses only on
        its slow refreshes, and the frame's final posterior are bitwise `fuse` of the same
        evidence."""
        Y, cb, priors, *_ = make_instance(seed=4)
        denoise, em_schedule, calls = engine.bg_denoise_batch, engine.em_schedule, []

        def recorded_denoise(pri, v, theta, lambda_pri, evidence):
            calls.append(("den", lambda_pri, evidence, denoise(pri, v, theta, lambda_pri,
                                                                evidence)))
            return calls[-1][3]

        def recorded_em(priors, iteration, resid, lin_resid, sigma, den_h, den_c, *args):
            calls.append(("em", priors.lam, den_h, den_c, []))
            return em_schedule(priors, iteration, resid, lin_resid, sigma, den_h, den_c, *args)

        def recorded_fuse(*args):  # EM's posterior, with the call it belongs to
            calls[-1][4].append((args, fuse(*args)))
            return calls[-1][4][-1][1]

        monkeypatch.setattr(engine, "bg_denoise_batch", recorded_denoise)
        monkeypatch.setattr(engine, "em_schedule", recorded_em)
        monkeypatch.setattr(turbomp.em, "fuse", recorded_fuse)
        result = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=7, em_enabled=True,
                                                          rel_change_tol=1e-12))
        assert result.iterations == 7
        assert len(calls) == 4 * result.iterations
        den_c = None
        for i in range(result.iterations):
            (_, lam_h1, ev_h1, _), (_, lam_h2, ev_h2, den_h), (_, lam_c, ev_c, den_c_next), em = (
                calls[4 * i:4 * i + 4])
            assert lam_h1 is em[1] and lam_h2 is em[1] and lam_c is em[1]
            if den_c is None:
                assert np.all(np.asarray(ev_h1) == 0) and ev_h2 is ev_h1
            else:
                assert ev_h1 is den_c.evidence and ev_h2 is den_c.evidence
            assert ev_c is den_h.evidence
            den_c = den_c_next
            assert em[2] is den_h and em[3] is den_c
            if (i + 1) % SLOW_PERIOD:
                assert em[4] == []
            else:
                [((lam, ev_a, ev_b), post)] = em[4]
                assert lam == em[1] and ev_a is den_h.evidence and ev_b is den_c.evidence
                want = fuse(em[1], den_h.evidence, den_c.evidence)
                assert np.array_equal(post.view(np.int64), want.view(np.int64))
        want = fuse(result.priors.lam, den_h.evidence, den_c.evidence)  # after EM's last refresh
        assert np.array_equal(result.lambda_D_post.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("em", [False, True])
    @pytest.mark.parametrize("max_iters", [1, 3, 7])
    def test_activity_is_fused_only_where_it_is_read(self, monkeypatch, em, max_iters):
        """`activity.fuse` runs once per EM slow refresh, in `em`, and once per frame, in the
        engine, for the final posterior; never on a fast refresh."""
        Y, cb, priors, *_ = make_instance(seed=4)
        calls = {engine: [], turbomp.em: []}
        for module in calls:
            monkeypatch.setattr(module, "fuse",
                                lambda *args, seen=calls[module]: seen.append(args) or fuse(*args))
        result = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=max_iters, em_enabled=em,
                                                          rel_change_tol=1e-300))
        assert result.iterations == max_iters
        assert len(calls[engine]) == 1
        assert len(calls[turbomp.em]) == em * (max_iters // SLOW_PERIOD)

    @pytest.mark.parametrize("call, em, error, match", [
        # the last mean-branch evidence feeds the slope prior, and the slope message goes NaN
        (2, False, NumericsError, "slope branch"),
        # the slope evidence feeds the next iteration's mean prior, whose forward product then
        # fails the second mean pass's residual check
        (3, False, NumericsError, "residual"),
        (3, True, NumericsError, "residual"),  # EM's noise-only refresh at iteration 1 reads none
        (9, True, ParameterError, "theta_H must be"),  # iteration 3 weighs theta by the posterior
        (15, False, ParameterError, "lambda_d_post"),  # the last slope evidence reaches the final
    ], ids=["2-False-slope branch", "3-False-residual", "3-True-residual",
            "9-True-theta_H must be", "15-False-lambda_d_post"])
    def test_a_nan_activity_likelihood_still_aborts_the_frame(self, monkeypatch, call, em, error,
                                                              match):
        """A frame's denoiser calls take their prior unchecked (its evidence is another call's
        NaN-checked log-likelihood ratio), so a NaN forced into a denoiser's evidence makes the
        next branch's message NaN, which the engine's message or residual check rejects, or
        reaches EM's slow refresh `PriorParams` or, from the frame's last denoiser, `detect`'s
        check of the final posterior; each raises before a result is returned."""
        Y, cb, priors, *_ = make_instance(seed=4)
        denoise, calls = engine.bg_denoise_batch, []

        def poisoned(*args):
            den = denoise(*args)
            calls.append(den)
            if len(calls) == call:
                evidence = den.evidence.copy()
                evidence[5] = np.nan
                den = dataclasses.replace(den, evidence=evidence)
            return den

        monkeypatch.setattr(engine, "bg_denoise_batch", poisoned)
        with pytest.raises(error, match=match):
            run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=5, em_enabled=em,
                                                     rel_change_tol=1e-12))


class TestForwardProducts:
    @pytest.mark.parametrize("case", list(CASES))
    def test_closed_form_products_match_operators(self, monkeypatch, case):
        """On each golden frame's inputs, every branch's outgoing forward product and
        posterior forward product equal the operator applied to the outgoing message (read
        back from its spectrum by the adjoint of zero) and to the denoiser's posterior mean,
        to 1e-12 relative."""
        doc = golden_frame(case)
        branch, errors = engine._branch, []

        def checked(resid, sigma, spectrum, v_pri, fwd_pri, weight, theta, lambda_pri, cb,
                    *args):
            out = branch(resid, sigma, spectrum, v_pri, fwd_pri, weight, theta, lambda_pri, cb,
                         *args)
            x_new, _, fwd_new, fwd_ext, den, inv_alpha, beta = out
            fwd_post = (fwd_new + beta * fwd_ext) * inv_alpha
            message = adjoint(cb, np.zeros_like(resid), x_new)
            for got, x in ((fwd_new, message), (fwd_post, den.post_mean)):
                want = weight * forward(cb, x)
                errors.append(np.max(np.abs(got - want)) - 1e-12 * np.max(np.abs(want)))
            return out

        monkeypatch.setattr(engine, "_branch", checked)
        result = replay(turbomp, doc)
        assert len(errors) == 2 * 3 * result.iterations  # two products each of three branches
        assert max(errors) <= 0.0


class TestSigmaAndMoment:
    """Sigma's slope term is formed once per iteration, and EM's moment by `em_schedule` only
    for the default noise update; each must still be what every pass and refresh reads."""

    @staticmethod
    def record(monkeypatch, case):
        """Replay a golden EM frame; returns its result, its codebook, its priors and, in call
        order, each branch pass's (mean pass?, resid, Sigma, v_pri, v_out) and each EM call's
        (its arguments, its priors)."""
        doc = golden_frame(case)
        branch, em_schedule, events = engine._branch, engine.em_schedule, []

        def recorded_branch(resid, sigma, spectrum, v_pri, fwd_pri, weight, *args):
            out = branch(resid, sigma, spectrum, v_pri, fwd_pri, weight, *args)
            events.append((np.isscalar(weight), resid.copy(), sigma.copy(), v_pri.copy(), out[1]))
            return out

        def recorded_em(*args):
            events.append((args, em_schedule(*args)))
            return events[-1][1]

        monkeypatch.setattr(engine, "_branch", recorded_branch)
        monkeypatch.setattr(engine, "em_schedule", recorded_em)
        result = replay(turbomp, doc)
        K, N, T, Q = (int(v) for v in doc["dims"])
        cb = turbomp.PilotCodebook(K=K, N=N, T=T, Q=Q, power=float(doc["power"]),
                                   selections=doc["selections"])
        assert result.iterations > SLOW_PERIOD  # the frame runs past a slow refresh
        return result, cb, PriorParams(*(float(v) for v in doc["priors"])), events

    @pytest.mark.parametrize("case", ["multipath_em_corrected", "multipath_60db"])
    def test_every_pass_gets_sigma_of_its_own_variances(self, monkeypatch, case):
        """From the first iteration through a slow refresh, each branch pass's Sigma is
        bitwise `oracles.observation_variance` of that pass's v_h and v_c (its own input and
        the other branch's last output) and EM's last noise variance."""
        result, cb, priors, events = self.record(monkeypatch, case)
        M = result.H.shape[1]
        v_h, v_c = np.full(M, priors.lam * priors.theta_H), np.full(M, priors.lam * priors.theta_C)
        sigma_w2, seen = priors.sigma_w2, set()
        for event in events:
            if len(event) == 2:  # an EM refresh
                sigma_w2 = event[1].sigma_w2
                continue
            means, _, sigma, v_pri, v_out = event
            assert v_pri.tobytes() == (v_h if means else v_c).tobytes()
            assert sigma.tobytes() == observation_variance(cb, v_h, v_c, sigma_w2).tobytes()
            seen.add((v_c.tobytes(), sigma_w2))
            v_h, v_c = (v_out, v_c) if means else (v_h, v_out)
        assert len(seen) == result.iterations  # v_c and sigma_w2 move every iteration

    def test_default_update_gets_the_moment_of_the_slope_pass(self, monkeypatch):
        """Each refresh of the default noise update is handed the residual and Sigma of the
        slope pass it follows, and its noise variance is max(m, s) with m bit for bit
        `oracles.moment_estimate` of that pass under the priors it refreshes; the moment
        decides some refreshes."""
        result, cb, _, events = self.record(monkeypatch, "multipath_60db")
        refreshes = [(events[i - 1], em) for i, em in enumerate(events) if len(em) == 2]
        assert len(refreshes) == result.iterations
        decided = 0
        for (means, resid, sigma, _, _), ((priors, _, post, lin, sig, *_), out) in refreshes:
            assert not means and lin.tobytes() == resid.tobytes()
            assert sig.tobytes() == sigma.tobytes()
            m = moment_estimate(resid, sigma, priors.sigma_w2)
            s = float(np.vdot(post, post).real) / post.size  # the residual power
            bounds = (turbomp.em.VAR_FLOOR * cb.power, turbomp.em.VAR_CEIL * cb.power)
            assert out.sigma_w2 == min(max(m, s, bounds[0]), bounds[1])
            decided += m > s
        assert decided > 0

    def test_corrected_update_reads_no_moment(self, monkeypatch):
        """With the corrected noise update each refresh, fast and slow, gives the same priors
        whatever slope-pass residual and Sigma it is handed, NaN and +-inf included."""
        result, _, _, events = self.record(monkeypatch, "multipath_em_corrected")
        refreshes = [em for em in events if len(em) == 2]
        assert len(refreshes) == result.iterations
        for (priors, iteration, post, lin, sig, *rest), out in refreshes:
            for other in (np.nan, -np.inf, np.inf, 0.0, 1e300):
                for slope in ((np.full_like(lin, other), sig), (lin, np.full_like(sig, other))):
                    assert turbomp.em.em_schedule(priors, iteration, post, *slope,
                                                  *rest) == out

    @pytest.mark.parametrize("case", ["multipath_em_corrected", "multipath_60db"])
    def test_em_gets_the_slope_pass_residual_and_sigma_themselves(self, monkeypatch, case):
        """Every EM call, across a slow refresh, gets the very residual and Sigma arrays (`is`)
        that the slope pass's `_branch` call got."""
        branch, em_schedule, slope_inputs, handed = engine._branch, engine.em_schedule, [], []

        def recorded_branch(resid, sigma, spectrum, v_pri, fwd_pri, weight, *args):
            if not np.isscalar(weight):  # the slope pass
                slope_inputs.append((resid, sigma))
            return branch(resid, sigma, spectrum, v_pri, fwd_pri, weight, *args)

        def recorded_em(priors, iteration, post, lin, sig, *args):
            handed.append((lin, sig))
            return em_schedule(priors, iteration, post, lin, sig, *args)

        monkeypatch.setattr(engine, "_branch", recorded_branch)
        monkeypatch.setattr(engine, "em_schedule", recorded_em)
        result = replay(turbomp, golden_frame(case))
        assert result.iterations > SLOW_PERIOD and len(handed) == result.iterations
        assert len(slope_inputs) == len(handed)
        for (resid, sigma), (lin, sig) in zip(slope_inputs, handed):
            assert lin is resid and sig is sigma


class TestMessageLayout:
    @staticmethod
    def multipath_frame():
        """The inputs of the golden multipath frame with EM and the corrected noise update."""
        return golden_frame("multipath_em_corrected")

    def test_messages_device_contiguous_and_result_device_major(self, monkeypatch):
        """In a multipath frame every block reaching apply_A has a contiguous device axis
        (a C-order temporary would keep the output but lose the fast FFT path), and the
        result's H and C are C-ordered (QK, M) matrices."""
        doc = self.multipath_frame()
        apply_A, strides = turbomp.PilotCodebook.apply_A, []

        def recorded(cb, x):
            strides.append(x.strides[0] // x.itemsize)
            return apply_A(cb, x)

        monkeypatch.setattr(turbomp.PilotCodebook, "apply_A", recorded)
        result = replay(turbomp, doc)
        assert len(strides) == 3 * result.iterations  # one per branch, three branches
        assert set(strides) == {1}
        K, N, T, Q = (int(v) for v in doc["dims"])
        for X in (result.H, result.C):
            assert X.shape == (Q * K, doc["Y"].shape[1]) and X.flags.c_contiguous

    def test_denoiser_reads_each_block_in_place(self, monkeypatch):
        """In a multipath frame every block the engine hands its denoiser is device-contiguous,
        and the denoiser keeps that memory as its pri_mean: its layout line never copies."""
        doc = self.multipath_frame()
        denoise, calls = engine.bg_denoise_batch, []

        def recorded(pri, *args):
            calls.append((pri, denoise(pri, *args)))
            return calls[-1][1]

        monkeypatch.setattr(engine, "bg_denoise_batch", recorded)
        result = replay(turbomp, doc)
        assert len(calls) == 3 * result.iterations
        for pri, den in calls:
            assert pri.transpose(1, 2, 0).flags.c_contiguous
            assert den.pri_mean.strides == pri.strides and np.shares_memory(den.pri_mean, pri)


class TestDenoiserInputs:
    @pytest.mark.parametrize("case", list(CASES))
    def test_every_denoiser_input_is_bounded(self, monkeypatch, case):
        """The denoiser checks none of its inputs, so in each golden frame every call gets
        what the engine promises: (K, Q, M) complex blocks, one variance per antenna in
        [V_FLOOR, V_MAX] (the frame's clamp), a positive finite theta, a rate in (0, 1) and
        evidence with no NaN, each a scalar or one value per device."""
        doc = golden_frame(case)
        K, _, _, Q = (int(v) for v in doc["dims"])
        M = doc["Y"].shape[1]
        denoise, calls = engine.bg_denoise_batch, []

        def recorded(pri, v, theta, lambda_pri, evidence=0.0):
            calls.append((pri, v, theta, lambda_pri, evidence, turbomp.lmmse.V_MAX))
            return denoise(pri, v, theta, lambda_pri, evidence)

        monkeypatch.setattr(engine, "bg_denoise_batch", recorded)
        result = replay(turbomp, doc)
        assert len(calls) == 3 * result.iterations
        for pri, v, theta, lambda_pri, evidence, v_max in calls:
            assert pri.shape == (K, Q, M) and pri.dtype == np.complex128
            assert v.shape == (M,) and np.all((turbomp.lmmse.V_FLOOR <= v) & (v <= v_max))
            assert np.ndim(theta) == 0 and 0.0 < theta < np.inf
            assert np.shape(lambda_pri) in ((), (K,))
            assert np.all((0 < lambda_pri) & (lambda_pri < 1))
            assert np.shape(evidence) in ((), (K,)) and not np.isnan(evidence).any()


class TestWorkspace:
    """A frame's (K, Q, M) blocks live in one workspace that the frame frees on return."""

    BLOCK = 4000 * 4 * 8 * 16  # bytes of one K=4000, Q=4, M=8 complex block

    @staticmethod
    def traced_frame(seed=0):
        """A K=4000, M=8 frame run under tracemalloc, after an untimed warm-up: its result, the
        bytes still held after it returned and its peak, both counted from the bytes held
        before the call."""
        Y, cb, priors, *_ = make_instance(seed=seed, K=4000, N=72, T=8, Q=4, M=8,
                                          lam=50 / 4000, theta_C=0.01)
        opts = TurboOptions(max_iters=10, em_enabled=True)
        run_turbo_mp(Y, cb, priors, opts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_turbo_mp(Y, cb, priors, opts)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held - before, peak - before

    def test_no_slot_outlives_its_frame(self):
        """What the frame leaves held is its result's arrays and a few kB of traces, far
        less than one block."""
        result, held, _ = self.traced_frame()
        arrays = sum(a.nbytes for a in (result.H, result.C, result.lambda_D_post,
                                        result.activity))
        assert arrays <= held <= arrays + 64 * 1024

    def test_traced_peak_is_the_workspace_and_the_result(self):
        """The peak is the 5-block workspace and the 2 blocks of H and C, plus small arrays:
        7.60 blocks on seeds 0-9 (9.47 with a 7-block workspace; 8.64 before the workspace,
        whose freed blocks the malloc arena held instead).  One more block fails."""
        _, _, peak = self.traced_frame(seed=3)
        assert peak <= 8 * self.BLOCK

    def test_a_result_outlives_the_next_frame(self):
        """A second frame of the same shape, on the same codebook, leaves the first frame's
        result bitwise unchanged: no block is kept across frames."""
        Y, cb, priors, *_ = make_instance(seed=2, M=3)
        first = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=6))
        fields = ("H", "C", "lambda_D_post", "activity")
        saved = [getattr(first, name).copy() for name in fields]
        rows = [dict(row) for row in first.diagnostics.rows]
        run_turbo_mp(np.roll(Y, 1, axis=0), cb, priors, TurboOptions(max_iters=6))
        for name, want in zip(fields, saved):
            assert getattr(first, name).tobytes() == want.tobytes()
        assert first.diagnostics.rows == rows


class _DevicePermutedCodebook:
    """Duck-typed codebook whose device j uses the wrapped device perm[j]."""

    _fields = ("K", "N", "T", "Q", "power", "D_diag", "D2_diag", "rows", "cols",
               "rows_per_block")

    def __init__(self, cb, perm):
        self._cb = cb
        self._perm = np.asarray(perm)
        for name in self._fields:
            setattr(self, name, getattr(cb, name))

    def _scatter(self, x):
        blocks = x.reshape(self.K, -1)
        out = np.empty_like(blocks)
        out[self._perm] = blocks
        return out.reshape(x.shape)

    def _gather(self, x):
        blocks = x.reshape(self.K, -1)
        return blocks[self._perm].reshape(x.shape)

    def apply_A(self, x):
        """A @ x; x receives the spectrum of the wrapped codebook's device order, which only
        this codebook's adjoint reads."""
        permuted = self._scatter(x)
        y = self._cb.apply_A(permuted)
        x[...] = permuted
        return y

    def apply_A_adjoint(self, y, out, spectrum):
        out[...] = self._gather(self._cb.apply_A_adjoint(y, np.empty_like(out), spectrum))
        return out
