"""Acceptance suite: one test per release criterion, slowest last.

Each test prints a `[criterion NN] ... PASS` line with the measured numbers
(visible with `pytest -s`); `pytest -v` shows one pass/fail line per
criterion via the test names.
"""

import time

import numpy as np
import pytest

from oracles import (
    bg_scalar_reference,
    combine,
    dense_A,
    dense_B,
    dense_joint_lmmse,
    genie_support_lmmse,
)
from turbomp import (
    ExperimentConfig,
    PriorParams,
    TurboOptions,
    activity_posterior,
    bg_denoise_batch,
    blockwise_basis,
    build_codebook,
    detect,
    nmse,
    project_blockwise,
    roc_sweep,
    run_experiment,
    run_turbo_mp,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from turbomp.channel import example_pdp_path, load_pdp
from turbomp.lmmse import extrinsic, linear_extrinsic, observation_variance


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_01_operator_algebra():
    """Partial orthogonality, fast/dense equivalence, adjoint identity."""
    start = time.perf_counter()
    cb = build_codebook(K=64, N=8, T=4, Q=2, P=1.0, seed=0)
    A, B = dense_A(cb), dense_B(cb)
    kp_eye = cb.K * cb.power * np.eye(cb.rows)
    ortho = np.linalg.norm(A @ A.conj().T - kp_eye) / np.linalg.norm(kp_eye)
    assert ortho < 1e-10

    rng = np.random.default_rng(1)
    x = rand_complex(rng, cb.cols)
    y = rand_complex(rng, cb.rows)
    pairs = [
        (cb.apply_A(x), A @ x),
        (cb.apply_A_adjoint(y), A.conj().T @ y),
        (cb.apply_B(x), B @ x),
        (cb.apply_B_adjoint(y), B.conj().T @ y),
    ]
    worst = max(np.linalg.norm(f - d) / np.linalg.norm(d) for f, d in pairs)
    assert worst < 1e-12

    adj = abs(np.vdot(y, cb.apply_A(x)) - np.vdot(cb.apply_A_adjoint(y), x))
    adj /= abs(np.vdot(y, cb.apply_A(x)))
    assert adj < 1e-12

    wall = time.perf_counter() - start
    assert wall < 1.0
    print(f"\n[criterion 01] operator algebra: PASS "
          f"(ortho {ortho:.1e}, fast/dense {worst:.1e}, adjoint {adj:.1e}, {wall:.2f} s)")


def test_criterion_02_linear_module_exactness():
    """Posterior mean and trace-averaged variance match dense joint LMMSE."""
    start = time.perf_counter()
    cb = build_codebook(K=16, N=8, T=4, Q=2, seed=2, strict=False)
    rng = np.random.default_rng(3)
    v_h, v_c, sw2 = 0.31, 0.12, 0.05
    h_pri = rand_complex(rng, cb.cols)
    c_pri = rand_complex(rng, cb.cols)
    y = rand_complex(rng, cb.rows)

    # the posterior variance comes from the linear module; the posterior mean is
    # its extrinsic message combined with the prior message
    sigma = observation_variance(v_h, v_c, sw2, cb)
    resid = y - cb.apply_A(h_pri) - cb.apply_B(c_pri)
    posts = []
    for x, v, weight, fwd in [(h_pri, v_h, 1.0, cb.apply_A(h_pri)),
                              (c_pri, v_c, cb.D_diag, cb.apply_B(c_pri))]:
        x_ext, v_ext, v_post, _ = linear_extrinsic(x, v, fwd, resid, sigma, weight, cb)
        posts.append((combine(x_ext, v_ext, x, v)[0], v_post))
    (mean_h, var_h), (mean_c, var_c) = posts
    h_ref, c_ref, vh_ref, vc_ref = dense_joint_lmmse(
        y, dense_A(cb), dense_B(cb), h_pri, c_pri, v_h, v_c, sw2
    )
    mean_err = max(
        np.linalg.norm(mean_h - h_ref) / np.linalg.norm(h_ref),
        np.linalg.norm(mean_c - c_ref) / np.linalg.norm(c_ref),
    )
    var_err = max(
        abs(var_h - vh_ref) / vh_ref,
        abs(var_c - vc_ref) / vc_ref,
    )
    assert mean_err < 1e-8
    assert var_err < 1e-8
    wall = time.perf_counter() - start
    assert wall < 1.0
    print(f"\n[criterion 02] linear-module exactness: PASS "
          f"(mean {mean_err:.1e}, variance {var_err:.1e}, {wall:.2f} s)")


def test_criterion_03_denoiser_exactness():
    """Scalar posterior weight/mean/variance match quadrature on a grid."""
    start = time.perf_counter()
    axis = [-5.0, -2.0, 0.0, 1.0, 5.0]
    worst = 0.0
    cases = 0
    for re in axis:
        for im in axis:
            pri = re + 1j * im
            for v in (0.1, 1.0, 10.0):
                for theta in (0.1, 1.0, 10.0):
                    for lam in (0.01, 0.5, 0.99):
                        res = bg_denoise_batch(np.array([[[pri]]]), np.array([v]), theta,
                                               np.array([lam]))
                        l_ref, m_ref, v_ref = bg_scalar_reference(pri, v, theta, lam)
                        # relative 1e-6, with a tiny absolute floor so that
                        # quadrature noise on exact zeros does not register
                        for got, ref in [
                            (res.lambda_post[0], l_ref),
                            (res.post_mean[0, 0, 0], m_ref),
                            (res.post_var_elem[0, 0, 0], v_ref),
                        ]:
                            worst = max(worst, abs(got - ref) / (abs(ref) + 1e-9))
                        cases += 1
    assert worst < 1e-6
    wall = time.perf_counter() - start
    assert wall < 10.0
    print(f"\n[criterion 03] denoiser exactness: PASS "
          f"({cases} cases, worst rel err {worst:.1e}, {wall:.1f} s)")


def test_criterion_04_message_algebra():
    """Extrinsic round trip plus Bernoulli fusion identities."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        v_pri = float(rng.uniform(0.5, 3.0))
        v_post = float(rng.uniform(0.01, 0.4))
        pri = rand_complex(rng, 16)
        post = rand_complex(rng, 16)
        v_ext, alpha, beta = extrinsic(v_post, v_pri)
        back_mean, back_var = combine(alpha * post - beta * pri, v_ext, pri, v_pri)
        worst = max(
            worst,
            abs(back_var - v_post) / v_post,
            float(np.max(np.abs(back_mean - post)) / np.max(np.abs(post))),
        )
    assert worst < 1e-12

    lam = rng.uniform(0.01, 0.99, 10_000)
    a = rng.uniform(0.0, 1.0, 10_000)
    b = rng.uniform(0.0, 1.0, 10_000)
    np.testing.assert_array_equal(activity_posterior(np.full_like(lam, 0.5),
                                                     np.full_like(lam, 0.5), lam), lam)
    np.testing.assert_array_equal(activity_posterior(a, b, lam),
                                  activity_posterior(b, a, lam))
    bump = 0.004
    base = activity_posterior(a, b, lam)
    assert np.all(activity_posterior(np.minimum(a + bump, 1.0), b, lam) >= base)
    assert np.all(activity_posterior(a, np.minimum(b + bump, 1.0), lam) >= base)
    assert np.all(activity_posterior(a, b, np.minimum(lam + bump, 0.99)) >= base)
    print(f"\n[criterion 04] message algebra: PASS (round trip {worst:.1e}, "
          f"fusion identities on 10000 triples)")


def test_criterion_05_decomposition_consistency():
    """Physical mixing equals the coefficient-plus-mismatch construction."""
    profile = load_pdp(example_pdp_path())
    worst = 0.0
    for trial in range(100):
        alpha = sample_activity(200, 0.1, seed=1000 + trial)
        real = sample_channel(profile, alpha, M=2, N=72, delta_f=15e3, seed=2000 + trial)
        for q in (2, 4, 8):
            cb = build_codebook(K=200, N=72, T=2, Q=q, seed=3000 + 10 * trial + q)
            truth = project_blockwise(real, blockwise_basis(72, q))
            direct = cb.mix_subcarriers(real.G)
            decomposed = (
                cb.apply_A(truth.H) + cb.apply_B(truth.C) + cb.mix_subcarriers(truth.Delta)
            )
            denom = np.linalg.norm(direct)
            if denom > 0:
                worst = max(worst, float(np.linalg.norm(direct - decomposed) / denom))
    assert worst < 1e-10
    print(f"\n[criterion 05] decomposition consistency: PASS "
          f"(100 realizations x Q in {{2,4,8}}, worst rel err {worst:.1e})")


def _oracle_gap_trials(snr_db, n_trials, em):
    """Shared scenario for the end-to-end oracle-gap and learned-prior runs."""
    K, N, T, Q, M = 200, 24, 8, 4, 4
    lam, theta_H, theta_C = 0.05, 1.0, 0.01
    sn2 = 10.0 ** (-snr_db / 10.0)
    basis = blockwise_basis(N, Q)
    out = {"turbo": [], "genie": [], "lam_hat": [], "fixed": []}
    for trial in range(n_trials):
        truth, real = sample_blockwise_exact(K, M, basis, lam, theta_H, theta_C,
                                             seed=10_000 + trial)
        if real.activity.sum() == 0:
            continue
        cb = build_codebook(K, N, T, Q, seed=20_000 + trial)
        rng = np.random.default_rng(30_000 + trial)
        noise = np.sqrt(sn2 / 2) * rand_complex(rng, cb.rows, M)
        Y = cb.mix_subcarriers(real.G) + noise

        fixed_priors = PriorParams(theta_H=theta_H, theta_C=theta_C, sigma_w2=sn2, lam=lam)
        res_fixed = run_turbo_mp(Y, cb, fixed_priors, TurboOptions())
        out["fixed"].append(nmse(real.G, res_fixed.H, res_fixed.C, basis, real.activity))

        if em:
            from turbomp import em_initial_params

            res_em = run_turbo_mp(Y, cb, em_initial_params(Y, cb),
                                  TurboOptions(em_enabled=True))
            out["turbo"].append(nmse(real.G, res_em.H, res_em.C, basis, real.activity))
            out["lam_hat"].append(res_em.priors.lam)
        else:
            H_g, C_g = genie_support_lmmse(Y, cb, real.activity, theta_H, theta_C, sn2)
            out["genie"].append(nmse(real.G, H_g, C_g, basis, real.activity))
    return out


def test_criterion_06_end_to_end_oracle_gap():
    """Known-prior estimator lands within 3 dB of the known-support bound."""
    start = time.perf_counter()
    out = _oracle_gap_trials(snr_db=20.0, n_trials=100, em=False)
    turbo_db = 10 * np.log10(np.mean(out["fixed"]))
    genie_db = 10 * np.log10(np.mean(out["genie"]))
    gap = turbo_db - genie_db
    assert gap < 3.0
    wall = time.perf_counter() - start
    assert wall < 120.0
    print(f"\n[criterion 06] oracle gap at 20 dB: PASS "
          f"(estimator {turbo_db:.2f} dB, bound {genie_db:.2f} dB, gap {gap:.2f} dB, "
          f"{wall:.0f} s)")


def test_criterion_07_em_learning():
    """Blind-start learning matches the known-prior run and the true rate."""
    start = time.perf_counter()
    out = _oracle_gap_trials(snr_db=10.0, n_trials=100, em=True)
    lam_hat = float(np.mean(out["lam_hat"]))
    em_db = 10 * np.log10(np.mean(out["turbo"]))
    fixed_db = 10 * np.log10(np.mean(out["fixed"]))
    assert abs(lam_hat - 0.05) / 0.05 < 0.20
    assert em_db - fixed_db < 1.5
    wall = time.perf_counter() - start
    assert wall < 180.0
    print(f"\n[criterion 07] learned priors at 10 dB: PASS "
          f"(lambda_hat {lam_hat:.4f}, learned {em_db:.2f} dB vs known {fixed_db:.2f} dB, "
          f"{wall:.0f} s)")


def test_criterion_10_roc_monotonicity():
    """Threshold sweeps give monotone curves; ties detect inclusively."""
    rng = np.random.default_rng(10)
    posts = rng.uniform(0, 1, 4000)
    alpha = rng.integers(0, 2, 4000)
    thresholds = np.linspace(0.01, 0.99, 99)
    points = roc_sweep(posts, alpha, thresholds)
    p_miss = np.array([p[0] for p in points])
    p_false = np.array([p[1] for p in points])
    assert np.all(np.diff(p_miss) >= 0)
    assert np.all(np.diff(p_false) <= 0)

    pinned = np.full(64, 0.4)
    assert detect(pinned, 0.4).sum() == 64  # inclusive at equality
    assert detect(pinned, np.nextafter(0.4, 1.0)).sum() == 0
    print("\n[criterion 10] roc monotonicity: PASS (99 thresholds, inclusive boundary)")


def _detection_config(M):
    return ExperimentConfig.from_dict({
        "K": 1000, "N": 72, "T": 8, "Q": 4, "M": M,
        "snr_db": [-15.0], "lambda": 0.05,
        "channel": "multipath", "pdp_file": example_pdp_path(),
        "em": True, "em_sigma_correction": True,
        "max_iters": 15, "master_seed": 2026,
        "trials": 20_000, "min_error_events": 1000,
    })


@pytest.mark.slow
def test_criterion_08_antenna_gain_trend():
    """Pooled detection error at -15 dB drops by >= 3x from 4 to 8 antennas."""
    start = time.perf_counter()
    aggregates = {}
    for M in (4, 8):
        result = run_experiment(_detection_config(M))
        aggregates[M] = result.points[0].aggregate
    pe4, pe8 = aggregates[4]["pe"], aggregates[8]["pe"]
    for M in (4, 8):
        events = aggregates[M]["miss_events"] + aggregates[M]["false_events"]
        assert events >= 1000 or aggregates[M]["trials"] >= 20_000
    assert pe8 < pe4
    assert pe4 / pe8 >= 3.0
    wall = time.perf_counter() - start
    print(f"\n[criterion 08] antenna trend at -15 dB: PASS "
          f"(pe M=4 {pe4:.3e} over {aggregates[4]['trials']} trials, "
          f"pe M=8 {pe8:.3e} over {aggregates[8]['trials']} trials, "
          f"ratio {pe4 / pe8:.1f}x, {wall:.0f} s)")


def _nmse_trend_config(Q, snr_db):
    return ExperimentConfig.from_dict({
        "K": 1000, "N": 72, "T": 10, "Q": Q, "M": 8,
        "snr_db": [snr_db], "lambda": 0.05,
        "channel": "multipath", "pdp_file": example_pdp_path(),
        "em": True, "max_iters": 20, "master_seed": 777, "trials": 200,
    })


@pytest.mark.slow
def test_criterion_09_subblock_tradeoff_trend():
    """Fewer sub-blocks win at low SNR; more sub-blocks win at high SNR."""
    start = time.perf_counter()
    nmse_db = {}
    for snr in (0.0, 30.0):
        for Q in (2, 8):
            result = run_experiment(_nmse_trend_config(Q, snr))
            nmse_db[(snr, Q)] = result.points[0].aggregate["nmse_db"]
    assert nmse_db[(0.0, 2)] <= nmse_db[(0.0, 8)]
    assert nmse_db[(30.0, 8)] <= nmse_db[(30.0, 2)]
    wall = time.perf_counter() - start
    print(f"\n[criterion 09] sub-block tradeoff: PASS "
          f"(0 dB: Q2 {nmse_db[(0.0, 2)]:.2f} vs Q8 {nmse_db[(0.0, 8)]:.2f}; "
          f"30 dB: Q8 {nmse_db[(30.0, 8)]:.2f} vs Q2 {nmse_db[(30.0, 2)]:.2f}; "
          f"{wall:.0f} s)")
