"""Iteration schedule, equivariance, and convergence behaviour of the engine."""

import sys
from pathlib import Path

import numpy as np
import pytest

import turbomp
from turbomp import engine
from turbomp import (
    DimensionError,
    NumericsError,
    ParameterError,
    PriorParams,
    TurboOptions,
    blockwise_basis,
    build_codebook,
    cross_prior,
    init_state,
    run_turbo_mp,
    sample_blockwise_exact,
)

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_golden import CASES, replay  # noqa: E402


def make_instance(seed=0, K=64, N=8, T=2, Q=2, M=2, lam=0.2, theta_H=1.0,
                  theta_C=0.05, sn2=0.05):
    basis = blockwise_basis(N, Q)
    truth, real = sample_blockwise_exact(K, M, basis, lam, theta_H, theta_C, seed=seed)
    cb = build_codebook(K, N, T, Q, seed=seed + 10_000)
    rng = np.random.default_rng(seed + 20_000)
    noise = np.sqrt(sn2 / 2) * (
        rng.standard_normal((cb.rows, M)) + 1j * rng.standard_normal((cb.rows, M))
    )
    Y = cb.mix_subcarriers(real.G) + noise
    priors = PriorParams(theta_H=theta_H, theta_C=theta_C, sigma_w2=sn2, lam=lam)
    return Y, cb, priors, real, basis, truth


class TestInit:
    def test_prior_matched_variances(self):
        cb = build_codebook(64, 8, 2, 2, seed=0)
        priors = PriorParams(theta_H=1.0, theta_C=0.1, sigma_w2=0.1, lam=0.05)
        state = init_state(cb, priors, M=3)
        np.testing.assert_allclose(state.v_h, 0.05)
        np.testing.assert_allclose(state.v_c, 0.005)
        assert np.all(state.h_pri == 0) and np.all(state.c_pri == 0)

    def test_first_cross_message_equals_prior(self):
        cb = build_codebook(64, 8, 2, 2, seed=0)
        priors = PriorParams(theta_H=1.0, theta_C=0.1, sigma_w2=0.1, lam=0.07)
        state = init_state(cb, priors, M=1)
        np.testing.assert_array_equal(state.pi_C, 0.5)
        np.testing.assert_array_equal(cross_prior(state.pi_C, priors.lam), 0.07)

    def test_no_randomness(self):
        cb = build_codebook(64, 8, 2, 2, seed=0)
        priors = PriorParams(theta_H=1.0, theta_C=0.1, sigma_w2=0.1, lam=0.05)
        a = init_state(cb, priors, M=2)
        b = init_state(cb, priors, M=2)
        assert np.array_equal(a.v_h, b.v_h) and np.array_equal(a.pi_B, b.pi_B)


class TestSchedule:
    def test_module_sequence_single_inner_update(self):
        """One iteration visits linear/mean-denoise/linear/slope-denoise in order."""
        Y, cb, priors, *_ = make_instance()
        opts = TurboOptions(max_iters=3, inner_h_updates=1, rel_change_tol=1e-300)
        res = run_turbo_mp(Y, cb, priors, opts)
        trace = res.diagnostics.module_trace
        assert trace == ["A_h", "B", "A_c", "C"] * 3

    def test_module_sequence_with_inner_updates(self):
        Y, cb, priors, *_ = make_instance()
        opts = TurboOptions(max_iters=2, inner_h_updates=2, rel_change_tol=1e-300)
        res = run_turbo_mp(Y, cb, priors, opts)
        assert res.diagnostics.module_trace == ["A_h", "B", "A_h", "B", "A_c", "C"] * 2

    def test_em_appears_in_trace_when_enabled(self):
        Y, cb, priors, *_ = make_instance()
        opts = TurboOptions(max_iters=2, inner_h_updates=1, em_enabled=True,
                            rel_change_tol=1e-300)
        res = run_turbo_mp(Y, cb, priors, opts)
        assert res.diagnostics.module_trace == ["A_h", "B", "A_c", "C", "EM"] * 2

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


class TestFailureModes:
    def test_non_finite_observation_aborts_with_trace(self):
        Y, cb, priors, *_ = make_instance(seed=8)
        Y[0, 0] = np.nan
        with pytest.raises(NumericsError) as excinfo:
            run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=2))
        assert excinfo.value.diagnostics is not None

    def test_dimension_mismatch(self):
        Y, cb, priors, *_ = make_instance(seed=9)
        with pytest.raises(DimensionError):
            run_turbo_mp(Y[:-1], cb, priors)

    def test_option_validation(self):
        for bad in (dict(max_iters=0), dict(rel_change_tol=0.0),
                    dict(inner_h_updates=0), dict(threshold=1.0),
                    dict(damping=0.0), dict(em_damping=1.5),
                    dict(v_max=0.0), dict(v_max=-1.0), dict(v_max=float("inf"))):
            with pytest.raises(ParameterError):
                TurboOptions(**bad)


class TestForwardProducts:
    @pytest.mark.parametrize("case", list(CASES))
    def test_closed_form_products_match_operators(self, monkeypatch, case):
        """On each golden frame's inputs, every branch's damped forward product and
        posterior forward product equal the operator applied to the outgoing message
        and to the denoiser's posterior mean, to 1e-12 relative."""
        with np.load(GOLDEN / "engine_golden.npz") as data:
            doc = {key.split("__", 1)[1]: data[key] for key in data.files
                   if key.startswith(case + "__")}
        branch, errors = engine._branch, []

        def checked(state, x_pri, v_pri, fwd_pri, weight, *args):
            out = branch(state, x_pri, v_pri, fwd_pri, weight, *args)
            x_new, _, fwd_new, fwd_post, den = out
            for got, x in ((fwd_new, x_new), (fwd_post, den.post_mean)):
                want = weight * state.codebook.apply_A(x.reshape(-1, state.M))
                errors.append(np.max(np.abs(got - want)) - 1e-12 * np.max(np.abs(want)))
            return out

        monkeypatch.setattr(engine, "_branch", checked)
        result = replay(turbomp, doc)
        trace = result.diagnostics.module_trace
        assert len(errors) == len(trace) - trace.count("EM")  # two products per branch
        assert max(errors) <= 0.0


class _DevicePermutedCodebook:
    """Duck-typed codebook whose device j uses the wrapped device perm[j]."""

    _fields = ("K", "N", "T", "Q", "power", "D_diag", "rows", "cols", "rows_per_block")

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
        return self._cb.apply_A(self._scatter(x))

    def apply_B(self, x):
        return self._cb.apply_B(self._scatter(x))

    def apply_A_adjoint(self, y):
        return self._gather(self._cb.apply_A_adjoint(y))

    def apply_B_adjoint(self, y):
        return self._gather(self._cb.apply_B_adjoint(y))
