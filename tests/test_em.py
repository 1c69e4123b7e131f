"""Prior-parameter learning updates and their schedule."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from turbomp import (
    BlockwiseBasis,
    ExperimentConfig,
    ParameterError,
    PriorParams,
    TurboOptions,
    build_codebook,
    em_initial_params,
    run_experiment,
    run_turbo_mp,
    sample_blockwise_exact,
)
from turbomp.activity import fuse, logit
from turbomp.channel import example_pdp_path
from turbomp.denoiser import bg_denoise_batch
from turbomp.em import SLOW_PERIOD, em_schedule

from oracles import forward, moment_estimate

CB = build_codebook(K=16, N=4, T=1, Q=2, seed=0)
PRIORS = PriorParams(theta_H=1.0, theta_C=1e-3, sigma_w2=0.5, lam=0.1)


def stand_in(pri_mean, energy=None, column_var=(0.0,)):
    """A denoiser output holding the fields `em_schedule` reads, but for the evidence."""
    energy = np.zeros(len(pri_mean)) if energy is None else energy
    return SimpleNamespace(pri_mean=pri_mean, energy=energy, column_var=np.asarray(column_var))


def certain(active):
    """Evidence that fuses to exactly the 0/1 posterior `active`: +inf where 1, -inf where 0."""
    return np.where(np.asarray(active) == 1, np.inf, -np.inf)


def slope_pass(moment, sigma_w2=PRIORS.sigma_w2, cb=CB, M=1):
    """A slope pass's residual r and Sigma whose moment mean(|r|^2 - (Sigma - sigma_w2)) is
    about `moment`: |r|^2 = max(moment, 0) and Sigma = sigma_w2 - min(moment, 0) throughout."""
    resid = np.full((cb.rows, M), np.sqrt(max(moment, 0.0)), dtype=complex)
    return resid, np.full(M, sigma_w2 - min(moment, 0.0))


def refresh(evidence_h, evidence_c=None, den_h=None, den_c=None, resid=None, moment=-np.inf,
            iteration=SLOW_PERIOD, priors=PRIORS, cb=CB, correction=False):
    """The priors after one `em_schedule` call; by default a slow refresh with neutral
    denoiser stand-ins carrying the given evidence (none from the slope block), a zero residual
    and a slope pass whose moment is `moment` (-inf: the residual power wins)."""
    evidence_h = np.asarray(evidence_h, dtype=float)
    den_h = stand_in(np.zeros((evidence_h.size, 1, 1))) if den_h is None else den_h
    evidence_c = np.zeros(evidence_h.size) if evidence_c is None else evidence_c
    den_h, den_c = (SimpleNamespace(**vars(den), evidence=np.asarray(evidence, dtype=float))
                    for den, evidence in ((den_h, evidence_h), (den_c or den_h, evidence_c)))
    resid = np.zeros((cb.rows, 1), dtype=complex) if resid is None else resid
    opts = TurboOptions(em_enabled=True, em_sigma_correction=correction)
    return em_schedule(priors, iteration, resid, *slope_pass(moment, priors.sigma_w2, cb),
                       den_h, den_c, cb, opts)


def theta_H_of(H, var, active, previous):
    """The mean-block update from (K, Q, M) posterior means and variances, with the devices in
    `active` certain to be active and the others certain not to be."""
    energy = np.sum(np.abs(H) ** 2 + var, axis=(1, 2))
    return refresh(certain(active), den_h=stand_in(H, energy),
                   priors=replace(PRIORS, theta_H=previous)).theta_H


def residual_power(resid):
    """The residual power s per entry, as the noise update forms it."""
    return float(np.vdot(resid, resid).real) / resid.size


def sigma_w2_of(Y, H, C, cb, **kwargs):
    """The noise update from posterior means, through the residual it takes."""
    resid = Y - forward(cb, H) - cb.D_diag[:, None] * forward(cb, C)
    return refresh(np.zeros(cb.K), resid=resid, iteration=1, cb=cb, **kwargs).sigma_w2


class TestThetaUpdates:
    def test_direct_substitution(self):
        """All-active posts with zero variances return the per-entry energy."""
        K, Q, M = 5, 2, 3
        c0 = 0.7
        H = np.full((K, Q, M), np.sqrt(c0), dtype=complex)
        var = np.zeros((K, Q, M))
        lam = np.ones(K)
        assert theta_H_of(H, var, lam, previous=1.0) == pytest.approx(c0, rel=1e-12)

    def test_single_dominating_device(self):
        K, Q, M = 4, 2, 2
        H = np.zeros((K, Q, M), dtype=complex)
        H[2] = 3.0
        var = np.zeros((K, Q, M))
        lam = np.zeros(K)
        lam[2] = 1.0
        assert theta_H_of(H, var, lam, previous=1.0) == pytest.approx(9.0, rel=1e-12)

    def test_zero_mass_keeps_previous(self):
        H = np.ones((3, 2, 2), dtype=complex)
        var = np.zeros((3, 2, 2))
        assert theta_H_of(H, var, np.zeros(3), previous=0.42) == 0.42

    def test_variance_term_counts(self):
        H = np.zeros((2, 1, 1), dtype=complex)
        var = np.full((2, 1, 1), 0.25)
        assert theta_H_of(H, var, np.ones(2), previous=1.0) == pytest.approx(0.25)


class TestSigmaW:
    def test_perfect_reconstruction_clamps_at_floor(self):
        cb = build_codebook(K=16, N=4, T=1, Q=2, seed=0)
        rng = np.random.default_rng(0)
        H = rng.standard_normal((cb.cols, 2)) + 0j
        C = rng.standard_normal((cb.cols, 2)) + 0j
        Y = forward(cb, H) + cb.D_diag[:, None] * forward(cb, C)
        assert sigma_w2_of(Y, H, C, cb) == pytest.approx(1e-12)

    def test_zero_estimates_give_observation_power(self):
        cb = build_codebook(K=16, N=4, T=1, Q=2, seed=1)
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((cb.rows, 3)) + 1j * rng.standard_normal((cb.rows, 3))
        zero = np.zeros((cb.cols, 3), dtype=complex)
        expected = np.sum(np.abs(Y) ** 2) / (3 * cb.rows)
        assert sigma_w2_of(Y, zero, zero, cb) == pytest.approx(expected, rel=1e-12)
        init = em_initial_params(Y, cb)
        assert init.sigma_w2 == pytest.approx(expected, rel=1e-12)
        assert (init.theta_H, init.theta_C, init.lam) == (1.0, 1e-3, 0.1)

    @pytest.mark.parametrize("P", [1.0, 4.0])
    def test_correction_term(self, P):
        """The trace term is (K P / M) sum_m (v_h,m + mean(D^2) v_c,m): each residual row
        has variance K P (v_h + D^2 v_c)."""
        cb = build_codebook(K=16, N=4, T=1, Q=2, P=P, seed=2)
        Y = np.zeros((cb.rows, 2), dtype=complex)
        zero = np.zeros((cb.cols, 2), dtype=complex)
        v_h = np.array([0.1, 0.3])
        v_c = np.array([0.01, 0.02])
        got = sigma_w2_of(Y, zero, zero, cb, correction=True,
                            den_h=stand_in(np.zeros((cb.K, 2, 2)), column_var=v_h),
                            den_c=stand_in(np.zeros((cb.K, 2, 2)), column_var=v_c))
        d2 = np.mean(cb.D_diag**2)
        expected = (cb.K * P / 2) * (v_h.sum() + d2 * v_c.sum())
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("P", [1.0, 1e6])
    def test_bounds_scale_with_pilot_power(self, P):
        """The noise variance is in pilot-power units, so its floor and ceiling are
        P VAR_FLOOR and P VAR_CEIL, in the blind start too; theta keeps its bounds."""
        cb = build_codebook(K=16, N=4, T=1, Q=2, P=P, seed=0)
        zero, active = np.zeros((cb.rows, 2), dtype=complex), certain(np.ones(cb.K))
        assert refresh(active, resid=zero, cb=cb).sigma_w2 == 1e-12 * P
        assert refresh(active, resid=zero, moment=1e9 * P, cb=cb).sigma_w2 == 1e6 * P
        assert em_initial_params(zero, cb).sigma_w2 == 1e-12 * P
        den = stand_in(np.zeros((cb.K, 1, 1)), np.full(cb.K, 1e8))
        assert refresh(active, den_h=den, resid=zero, cb=cb).theta_H == 1e6


class TestNoiseRule:
    """The scheduled noise update is max(m, s): the moment m of the slope pass it is handed
    when m exceeds the residual power s, else s; the correction forms no m."""

    def _inputs(self):
        cb = build_codebook(K=16, N=4, T=1, Q=2, seed=0)
        rng = np.random.default_rng(0)
        resid = 0.3 * (rng.standard_normal((cb.rows, 2)) + 1j * rng.standard_normal((cb.rows, 2)))
        pri = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        den = bg_denoise_batch(pri, np.array([0.1, 0.2]), 1.0, np.full(16, 0.2))
        priors = PriorParams(theta_H=1.0, theta_C=1e-3, sigma_w2=0.5, lam=0.1)
        return cb, resid, den, priors

    def _refresh(self, slope, resid=None, correction=False, priors=None, iteration=1):
        """The priors after one refresh handed the slope pass's (residual, Sigma) `slope`."""
        cb, default_resid, den, default_priors = self._inputs()
        resid = default_resid if resid is None else resid
        priors = default_priors if priors is None else priors
        opts = TurboOptions(em_enabled=True, em_sigma_correction=correction)
        return em_schedule(priors, iteration, resid, *slope, den, den, cb, opts)

    def _sigma(self, moment, **kwargs):
        """The noise update handed a slope pass whose moment is about `moment`, and the
        moment `oracles.moment_estimate` forms from that pass."""
        priors = kwargs.get("priors") or self._inputs()[3]
        slope = slope_pass(moment, priors.sigma_w2, M=2)
        return self._refresh(slope, **kwargs).sigma_w2, moment_estimate(*slope, priors.sigma_w2)

    def test_residual_power_when_moment_below(self):
        _, resid, _, _ = self._inputs()
        s = residual_power(resid)
        for moment in (0.5 * s, 0.0, -0.88, -1e9):
            got, m = self._sigma(moment)
            assert m < s and got == s

    def test_moment_when_above(self):
        _, resid, _, _ = self._inputs()
        got, m = self._sigma(3.0 * residual_power(resid))
        assert m > residual_power(resid) and got == m

    def test_both_clipped(self):
        assert self._sigma(1e9)[0] == 1e6
        zero = np.zeros_like(self._inputs()[1])
        assert self._sigma(-1.0, resid=zero)[0] == 1e-12
        tiny = replace(self._inputs()[3], sigma_w2=1e-30)  # so a moment of 1e-20 is not rounded
        got, m = self._sigma(1e-20, resid=zero, priors=tiny)
        assert 0.0 < m < 1e-12 and got == 1e-12

    def test_correction_ignores_moment(self):
        cb, resid, den, _ = self._inputs()
        d2 = np.mean(cb.D_diag**2)
        expected = residual_power(resid) + (cb.K / 2) * (
            den.column_var.sum() + d2 * den.column_var.sum())
        got = {self._sigma(moment, correction=True)[0]
               for moment in (-1.0, 0.0, expected * 10.0, 1e9)}
        assert len(got) == 1 and got.pop() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("iteration", [1, SLOW_PERIOD])
    def test_correction_reads_no_slope_pass(self, iteration):
        """On fast and slow refreshes alike, the corrected update returns equal priors
        whatever slope-pass residual and Sigma it is handed, NaN and +-inf included."""
        resid = self._inputs()[1]
        finite = (np.ones_like(resid), np.full(2, 0.5))
        want = self._refresh(finite, correction=True, iteration=iteration)
        for bad in (np.nan, np.inf, -np.inf):
            for slope in ((np.full_like(resid, bad), finite[1]), (finite[0], np.full(2, bad))):
                assert self._refresh(slope, correction=True, iteration=iteration) == want


class TestLambda:
    """The rate is the mean of the activity posterior that a slow refresh fuses from the
    denoisers' evidence under the current rate, kept off the exact endpoints."""

    def test_mean_identity(self):
        assert refresh(np.full(100, logit(0.05) - logit(PRIORS.lam))).lam == pytest.approx(0.05)
        rng = np.random.default_rng(3)
        e_h, e_c = rng.normal(0.0, 3.0, 1000), rng.normal(0.0, 3.0, 1000)
        want = np.clip(fuse(PRIORS.lam, e_h, e_c).mean(), 1e-6, 1 - 1e-6)
        assert refresh(e_h, e_c).lam == want

    def test_indicator_recovers_rate(self):
        post = np.zeros(100)
        post[:7] = 1.0
        assert refresh(certain(post)).lam == pytest.approx(0.07)

    def test_clamped_endpoints(self):
        assert refresh(certain(np.zeros(10))).lam == 1e-6
        assert refresh(certain(np.ones(10))).lam == 1 - 1e-6


class TestPilotPowerUnits:
    @pytest.mark.parametrize("correction", [False, True])
    def test_pilot_power_changes_no_decision(self, correction):
        """The noise variance is learned in pilot-power units, so scaling the pilot power
        at a fixed SNR leaves every trial's decisions, iterations, sigma_w2 / P and NMSE
        as at P = 1 (K=1000 multipath at -15 dB, where the learned sigma_w2 exceeds 1e6
        at P = 1e6)."""
        runs = []
        for P in (1.0, 1e4, 1e6):
            config = ExperimentConfig(K=1000, N=72, T=8, Q=4, M=8, lam=0.05, snr_db=[-15.0],
                                      pdp_file=example_pdp_path(), trials=4, master_seed=3,
                                      max_iters=15, pilot_power=P,
                                      em_sigma_correction=correction)
            runs.append((P, run_experiment(config).points[0].trials))
        (_, base), *scaled = runs
        for P, trials in scaled:
            for a, b in zip(base, trials):
                assert (b["miss"], b["false"], b["iterations"]) == (
                    a["miss"], a["false"], a["iterations"]), P
                assert b["nmse"] == pytest.approx(a["nmse"], rel=1e-6), P
                assert b["sigma_w2_hat"] / P == pytest.approx(a["sigma_w2_hat"], rel=1e-6), P


class TestScheduleCadence:
    def _run(self, iters, seed=0):
        basis = BlockwiseBasis(8, 2)
        truth, real = sample_blockwise_exact(64, 2, basis, 0.3, 1.0, 0.05, seed=seed)
        cb = build_codebook(64, 8, 1, 2, seed=seed)
        rng = np.random.default_rng(seed + 1)
        noise = 0.1 * (rng.standard_normal((cb.rows, 2)) + 1j * rng.standard_normal((cb.rows, 2)))
        Y = cb.mix_subcarriers(real.G_active, real.active) + noise
        opts = TurboOptions(em_enabled=True, max_iters=iters, rel_change_tol=1e-14)
        return run_turbo_mp(Y, cb, em_initial_params(Y, cb), opts)

    def test_only_noise_variance_moves_before_slow_period(self):
        res = self._run(iters=1)
        row = res.diagnostics.rows[0]
        assert res.priors.theta_H == 1.0 and res.priors.theta_C == 1e-3
        assert res.priors.lam == 0.1
        assert row["sigma_w2"] != pytest.approx(res.diagnostics.rows[0]["lam"])

    def test_all_parameters_move_at_slow_period(self):
        res = self._run(iters=3)
        assert res.priors.theta_H != 1.0
        assert res.priors.lam != 0.1

    def test_coefficient_variances_move_every_third_iteration_only(self):
        """Each diagnostics row holds the priors after its iteration's EM refresh: the noise
        variance moves at every iteration, theta_H and theta_C at iterations 3 and 6 only."""
        rows = self._run(iters=7).diagnostics.rows
        assert len(rows) == 7
        for name, start in (("sigma_w2", None), ("theta_H", 1.0), ("theta_C", 1e-3)):
            values = [start] + [row[name] for row in rows]  # the blind start, then each row
            moved = [row["iter"] for row, a, b in zip(rows, values, values[1:]) if a != b]
            assert moved == ([1, 2, 3, 4, 5, 6, 7] if start is None else [3, 6]), name

    def test_em_disabled_reproduces_fixed_runs_bit_exactly(self):
        basis = BlockwiseBasis(8, 2)
        truth, real = sample_blockwise_exact(64, 2, basis, 0.3, 1.0, 0.05, seed=5)
        cb = build_codebook(64, 8, 1, 2, seed=5)
        rng = np.random.default_rng(6)
        noise = 0.1 * (rng.standard_normal((cb.rows, 2)) + 1j * rng.standard_normal((cb.rows, 2)))
        Y = cb.mix_subcarriers(real.G_active, real.active) + noise
        priors = PriorParams(theta_H=1.0, theta_C=0.05, sigma_w2=0.02, lam=0.3)
        a = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=5))
        b = run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=5, em_enabled=False))
        assert np.array_equal(a.H, b.H) and np.array_equal(a.C, b.C)
        assert a.priors == b.priors


class TestConsistency:
    def _em_run(self, lam, seed, sn2=0.1):
        basis = BlockwiseBasis(24, 4)
        truth, real = sample_blockwise_exact(200, 4, basis, lam, 1.0, 0.01, seed=seed)
        cb = build_codebook(200, 24, 8, 4, seed=seed + 1000)
        rng = np.random.default_rng(seed + 2000)
        noise = np.sqrt(sn2 / 2) * (
            rng.standard_normal((cb.rows, 4)) + 1j * rng.standard_normal((cb.rows, 4))
        )
        Y = cb.mix_subcarriers(real.G_active, real.active) + noise
        res = run_turbo_mp(Y, cb, em_initial_params(Y, cb), TurboOptions(em_enabled=True))
        return res, real

    def test_em_recovers_block_variance_and_rate(self):
        """At 10 dB the learned variance lands near 1 and the learned rate
        matches the realized activity rate of each draw."""
        th_hats, lam_err = [], []
        for seed in range(10):
            res, real = self._em_run(0.05, 100 + seed)
            if real.activity.sum() == 0:
                continue
            th_hats.append(res.priors.theta_H)
            lam_err.append(abs(res.priors.lam - real.activity.mean()))
        assert 0.8 <= np.mean(th_hats) <= 1.2
        assert np.mean(lam_err) < 0.01

    def test_em_noise_variance_near_truth_when_occupancy_low(self):
        """The learned noise variance lands near the truth where few
        coefficients are active."""
        sw_hats = []
        for seed in range(10):
            res, real = self._em_run(0.02, 400 + seed)
            sw_hats.append(res.priors.sigma_w2)
        assert 0.08 <= np.mean(sw_hats) <= 0.12

    @pytest.mark.parametrize("bad", [
        dict(theta_H=np.nan), dict(theta_C=np.inf), dict(lam=0.0), dict(lam=np.nan),
        dict(lam=1.5)])
    def test_prior_params_bound_what_the_denoiser_reads(self, bad):
        """The denoiser checks neither theta nor the rate: every `PriorParams`, EM's refreshes
        included, keeps theta positive and finite and the rate in (0, 1), so the rate's
        log-odds the engine hands over is finite."""
        with pytest.raises(ParameterError):
            PriorParams(**{**dict(theta_H=1.0, theta_C=0.05, sigma_w2=1.0, lam=0.5), **bad})

    def test_prior_params_validation(self):
        with pytest.raises(ParameterError):
            PriorParams(theta_H=0.0, theta_C=1.0, sigma_w2=1.0, lam=0.5)
        with pytest.raises(ParameterError):
            PriorParams(theta_H=1.0, theta_C=1.0, sigma_w2=1.0, lam=1.0)
