"""Linear estimator and Gaussian message algebra tests."""

import numpy as np
import pytest

from oracles import dense_joint_lmmse
from turbomp import (
    GaussianMessage,
    ParameterError,
    build_codebook,
    combine,
    extrinsic,
    lmmse_posterior_c,
    lmmse_posterior_h,
    sigma_diag,
)
from turbomp.lmmse import V_FLOOR, V_MAX, linear_extrinsic


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSigmaDiag:
    def test_noise_only(self):
        cb = build_codebook(K=8, N=4, T=2, Q=2, seed=0)
        sig = sigma_diag(0.0, 0.0, 0.25, cb)
        np.testing.assert_allclose(sig.values, 0.25)

    def test_mean_term_only(self):
        # K*P = 4
        cb = build_codebook(K=4, N=2, T=2, Q=1, P=1.0, seed=0)
        sig = sigma_diag(1.0, 0.0, 0.1, cb)
        np.testing.assert_allclose(sig.values, 4.1)

    def test_slope_term_with_offset_two(self):
        # K*P = 2 and the offset vector contains the value 2
        cb = build_codebook(K=4, N=4, T=1, Q=1, P=0.5, seed=0)
        sig = sigma_diag(1.0, 1.0, 0.1, cb)
        at_two = sig.values[cb.D_diag == 2.0]
        np.testing.assert_allclose(at_two, 2.0 + 2.0 * 4.0 + 0.1)

    def test_matches_formula_elementwise(self):
        cb = build_codebook(K=64, N=8, T=4, Q=2, P=1.3, seed=1)
        v_h, v_c, sw2 = 0.7, 0.2, 0.05
        sig = sigma_diag(v_h, v_c, sw2, cb)
        kp = cb.K * cb.power
        np.testing.assert_allclose(sig.values, kp * v_h + kp * v_c * cb.D_diag**2 + sw2)

    def test_rejects_nonpositive_noise(self):
        cb = build_codebook(K=8, N=4, T=2, Q=2, seed=0)
        with pytest.raises(ParameterError):
            sigma_diag(1.0, 1.0, 0.0, cb)


class TestPosteriors:
    def setup_method(self):
        self.cb = build_codebook(K=16, N=8, T=4, Q=2, seed=3, strict=False)
        self.rng = np.random.default_rng(11)

    def _messages(self, v_h, v_c):
        n = self.cb.cols
        h = GaussianMessage(rand_complex(self.rng, n), v_h)
        c = GaussianMessage(rand_complex(self.rng, n), v_c)
        return h, c

    def test_zero_residual_returns_prior_mean(self):
        msg_h, msg_c = self._messages(0.4, 0.2)
        y = self.cb.apply_A(msg_h.mean) + self.cb.apply_B(msg_c.mean)
        sig = sigma_diag(0.4, 0.2, 0.01, self.cb)
        post = lmmse_posterior_h(y, msg_h, msg_c, sig, self.cb)
        np.testing.assert_allclose(post.mean, msg_h.mean, atol=1e-12)
        post_c = lmmse_posterior_c(y, msg_h, msg_c, sig, self.cb)
        np.testing.assert_allclose(post_c.mean, msg_c.mean, atol=1e-12)

    def test_zero_prior_variance_is_inert(self):
        msg_h, msg_c = self._messages(0.0, 0.3)
        y = rand_complex(self.rng, self.cb.rows)
        sig = sigma_diag(0.0, 0.3, 0.1, self.cb)
        post = lmmse_posterior_h(y, msg_h, msg_c, sig, self.cb)
        np.testing.assert_allclose(post.mean, msg_h.mean)
        assert post.variance == V_FLOOR

    def test_matches_dense_joint_lmmse(self):
        """Mean and trace-averaged variance agree with direct covariance
        inversion over the stacked unknowns."""
        v_h, v_c, sw2 = 0.31, 0.12, 0.05
        msg_h, msg_c = self._messages(v_h, v_c)
        y = rand_complex(self.rng, self.cb.rows)
        sig = sigma_diag(v_h, v_c, sw2, self.cb)
        post_h = lmmse_posterior_h(y, msg_h, msg_c, sig, self.cb)
        post_c = lmmse_posterior_c(y, msg_h, msg_c, sig, self.cb)
        h_ref, c_ref, vh_ref, vc_ref = dense_joint_lmmse(
            y, self.cb.dense_A(), self.cb.dense_B(),
            msg_h.mean, msg_c.mean, v_h, v_c, sw2,
        )
        assert np.linalg.norm(post_h.mean - h_ref) / np.linalg.norm(h_ref) < 1e-8
        assert np.linalg.norm(post_c.mean - c_ref) / np.linalg.norm(c_ref) < 1e-8
        assert abs(post_h.variance - vh_ref) / vh_ref < 1e-8
        assert abs(post_c.variance - vc_ref) / vc_ref < 1e-8

    def test_posterior_variance_shrinks(self):
        v_h, v_c = 0.5, 0.2
        msg_h, msg_c = self._messages(v_h, v_c)
        y = rand_complex(self.rng, self.cb.rows)
        sig = sigma_diag(v_h, v_c, 0.1, self.cb)
        assert lmmse_posterior_h(y, msg_h, msg_c, sig, self.cb).variance < v_h
        assert lmmse_posterior_c(y, msg_h, msg_c, sig, self.cb).variance < v_c

    def test_antenna_batch_matches_per_column(self):
        """Batched antennas reproduce each single-antenna result exactly."""
        M = 3
        n = self.cb.cols
        means_h = rand_complex(self.rng, n, M)
        means_c = rand_complex(self.rng, n, M)
        v_h = np.array([0.2, 0.5, 0.9])
        v_c = np.array([0.1, 0.05, 0.3])
        Y = rand_complex(self.rng, self.cb.rows, M)
        sig = sigma_diag(v_h, v_c, 0.07, self.cb)
        post = lmmse_posterior_h(
            Y, GaussianMessage(means_h, v_h), GaussianMessage(means_c, v_c), sig, self.cb
        )
        for m in range(M):
            sig_m = sigma_diag(v_h[m], v_c[m], 0.07, self.cb)
            post_m = lmmse_posterior_h(
                Y[:, m],
                GaussianMessage(means_h[:, m], float(v_h[m])),
                GaussianMessage(means_c[:, m], float(v_c[m])),
                sig_m,
                self.cb,
            )
            np.testing.assert_allclose(post.mean[:, m], post_m.mean, rtol=1e-13)
            np.testing.assert_allclose(post.variance[m], post_m.variance, rtol=1e-13)


class TestLinearExtrinsic:
    """The closed form equals the posterior divided by the prior message, and its
    forward product equals the operator applied to it."""

    def setup_method(self):
        self.cb = build_codebook(K=64, N=8, T=4, Q=2, seed=4)
        rng = np.random.default_rng(12)
        M = 3
        self.msg_h = GaussianMessage(rand_complex(rng, self.cb.cols, M), np.array([0.2, 0.5, 0.9]))
        self.msg_c = GaussianMessage(rand_complex(rng, self.cb.cols, M), np.array([0.1, 0.05, 0.3]))
        self.Y = rand_complex(rng, self.cb.rows, M)
        self.sig = sigma_diag(self.msg_h.variance, self.msg_c.variance, 0.07, self.cb)
        self.resid = (self.Y - self.cb.apply_A(self.msg_h.mean)
                      - self.cb.apply_B(self.msg_c.mean))

    def _check(self, v_max):
        cb, sig = self.cb, self.sig
        for msg, weight, posterior in [(self.msg_h, 1.0, lmmse_posterior_h),
                                       (self.msg_c, cb.D_diag[:, None], lmmse_posterior_c)]:
            post = posterior(self.Y, self.msg_h, self.msg_c, sig, cb)
            ref = extrinsic(post, msg, v_max=v_max)
            fwd_pri = weight * cb.apply_A(msg.mean)
            x_ext, v_ext, v_post, fwd_ext = linear_extrinsic(msg.mean, msg.variance, fwd_pri,
                                                             self.resid, sig.values, weight, cb,
                                                             v_max)
            np.testing.assert_allclose(v_post, post.variance, rtol=1e-12)
            np.testing.assert_allclose(v_ext, ref.variance, rtol=1e-12)
            err = np.max(np.abs(x_ext - ref.mean)) / np.max(np.abs(ref.mean))
            assert err < 1e-12
            direct = weight * cb.apply_A(x_ext)
            assert np.max(np.abs(fwd_ext - direct)) / np.max(np.abs(direct)) < 1e-12
        return ref.variance

    def test_matches_posterior_divided_by_prior(self):
        assert np.all(self._check(V_MAX) < V_MAX)

    def test_clamped_antennas_pass_the_posterior_through(self):
        """With v_max between the antennas' extrinsic variances, some clamp and some do not."""
        v_ext = np.sort(self._check(V_MAX))
        v_max = float(np.sqrt(v_ext[0] * v_ext[1]))
        clamped = self._check(v_max)
        assert np.any(clamped == v_max) and np.any(clamped < v_max)


class TestExtrinsic:
    def test_precision_subtraction(self):
        post = GaussianMessage(np.array([1.0 + 0j]), 0.5)
        pri = GaussianMessage(np.array([0.0 + 0j]), 1.0)
        ext = extrinsic(post, pri)
        assert ext.variance == pytest.approx(1.0)
        assert ext.mean[0] == pytest.approx(2.0)

    def test_recombination_round_trip(self):
        """Fusing the extrinsic output with the prior recovers the posterior."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 8
            v_pri = float(rng.uniform(0.5, 2.0))
            v_post = float(rng.uniform(0.05, 0.4))
            pri = GaussianMessage(rand_complex(rng, n), v_pri)
            post = GaussianMessage(rand_complex(rng, n), v_post)
            ext = extrinsic(post, pri)
            back = combine(ext, pri)
            assert abs(back.variance - v_post) / v_post < 1e-12
            assert np.max(np.abs(back.mean - post.mean)) < 1e-12 * np.max(np.abs(post.mean))

    def test_uninformative_posterior_clamps(self):
        post = GaussianMessage(np.array([1.0 + 0j]), 2.0)
        pri = GaussianMessage(np.array([0.5 + 0j]), 1.0)
        ext = extrinsic(post, pri)
        assert ext.variance == V_MAX
        assert ext.mean[0] == post.mean[0]

    def test_mixed_antenna_clamping(self):
        post = GaussianMessage(np.ones((4, 2), dtype=complex), np.array([0.5, 2.0]))
        pri = GaussianMessage(np.zeros((4, 2), dtype=complex), np.array([1.0, 1.0]))
        ext = extrinsic(post, pri)
        assert ext.variance[0] == pytest.approx(1.0)
        assert ext.variance[1] == V_MAX
        np.testing.assert_allclose(ext.mean[:, 0], 2.0)
        np.testing.assert_allclose(ext.mean[:, 1], 1.0)


class TestGaussianMessage:
    def test_variance_floor(self):
        msg = GaussianMessage(np.zeros(3, dtype=complex), 0.0)
        assert msg.variance == V_FLOOR

    def test_rejects_non_finite(self):
        from turbomp import NumericsError

        with pytest.raises(NumericsError):
            GaussianMessage(np.array([np.nan + 0j]), 1.0)
        with pytest.raises(ParameterError):
            GaussianMessage(np.zeros(2, dtype=complex), -1.0)
