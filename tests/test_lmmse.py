"""Linear estimator and Gaussian message algebra tests."""

import numpy as np
import pytest

from oracles import (
    block,
    combine,
    dense_A,
    dense_B,
    dense_joint_lmmse,
    forward,
    linear_extrinsic_algebra,
    lmmse_posterior,
    shared_row_codebook,
    spectrum,
)
from turbomp import (
    NumericsError,
    ParameterError,
    PriorParams,
    TurboOptions,
    build_codebook,
    run_turbo_mp,
)
from turbomp import engine, lmmse
from turbomp.lmmse import (V_FLOOR, V_MAX, extrinsic, linear_extrinsic, observation_variance,
                           slope_variance)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sigma_of(v_h, v_c, sigma_w2, cb):
    """Sigma as the engine forms it: its slope term from v_c, then the sum."""
    return observation_variance(v_h, slope_variance(v_c, cb), sigma_w2, cb)


def posterior(y, h_pri, c_pri, v_h, v_c, sigma_w2, cb, slopes=False):
    """One linear branch's posterior as the message the engine passes implies it: the
    precision combination of linear_extrinsic's extrinsic message with the prior
    message, whose variance is floored at V_FLOOR.  A (T*N,) y with scalar variances runs as
    one antenna, and gives a (Q*K,) mean and a scalar variance."""
    if np.ndim(y) == 1:
        mean, var = posterior(y[:, None], h_pri[:, None], c_pri[:, None], np.atleast_1d(v_h),
                              np.atleast_1d(v_c), sigma_w2, cb, slopes)
        return mean[:, 0], var[0]
    sigma = sigma_of(v_h, v_c, sigma_w2, cb)
    fwd_c = cb.D_diag[:, None] * forward(cb, c_pri)  # B = D A
    resid = y - forward(cb, h_pri) - fwd_c
    if slopes:
        x, v, weight, fwd = c_pri, v_c, cb.D_diag[:, None], fwd_c
    else:
        x, v, weight, fwd = h_pri, v_h, 1.0, forward(cb, h_pri)
    x_ext, v_ext, _ = linear_extrinsic(spectrum(cb, x), v, fwd, resid, sigma, weight, cb,
                                       block(cb, y.shape[1]))
    return combine(x_ext.reshape(x.shape), v_ext, x, np.maximum(v, V_FLOOR))


def extrinsic_message(x_post, v_post, x_pri, v_pri):
    """(mean, variance) of the posterior divided by the prior, in extrinsic's alpha/beta form."""
    v_ext, alpha, beta = extrinsic(v_post, v_pri)
    return alpha * x_post - beta * x_pri, v_ext


class TestSigmaDiag:
    """The observation covariance diagonal Sigma of the linear module."""

    def test_noise_only(self):
        cb = build_codebook(K=8, N=4, T=2, Q=2, seed=0)
        np.testing.assert_allclose(sigma_of(0.0, 0.0, 0.25, cb), 0.25)

    def test_mean_term_only(self):
        # K*P = 4
        cb = build_codebook(K=4, N=2, T=2, Q=1, P=1.0, seed=0)
        np.testing.assert_allclose(sigma_of(1.0, 0.0, 0.1, cb), 4.1)

    def test_slope_term_with_offset_two(self):
        # K*P = 2 and the offset vector contains the value 2
        cb = build_codebook(K=4, N=4, T=1, Q=1, P=0.5, seed=0)
        values = sigma_of(1.0, 1.0, 0.1, cb)
        at_two = values[cb.D_diag == 2.0]
        np.testing.assert_allclose(at_two, 2.0 + 2.0 * 4.0 + 0.1)

    def test_matches_formula_elementwise(self):
        cb = build_codebook(K=64, N=8, T=4, Q=2, P=1.3, seed=1)
        v_h, v_c, sw2 = 0.7, 0.2, 0.05
        kp = cb.K * cb.power
        np.testing.assert_allclose(sigma_of(v_h, v_c, sw2, cb),
                                   kp * v_h + kp * v_c * cb.D_diag**2 + sw2)

    def test_rejects_nonpositive_noise(self):
        """The noise variance reaches Sigma through PriorParams, which rejects it."""
        with pytest.raises(ParameterError):
            PriorParams(theta_H=1.0, theta_C=1.0, sigma_w2=0.0, lam=0.1)


class TestPosteriors:
    def setup_method(self):
        self.cb = shared_row_codebook(K=16, N=8, T=4, Q=2, seed=3)
        self.rng = np.random.default_rng(11)

    def _means(self):
        n = self.cb.cols
        return rand_complex(self.rng, n), rand_complex(self.rng, n)

    def test_zero_residual_returns_prior_mean(self):
        h, c = self._means()
        y = forward(self.cb, h) + self.cb.D_diag * forward(self.cb, c)
        mean_h, _ = posterior(y, h, c, 0.4, 0.2, 0.01, self.cb)
        np.testing.assert_allclose(mean_h, h, atol=1e-12)
        mean_c, _ = posterior(y, h, c, 0.4, 0.2, 0.01, self.cb, slopes=True)
        np.testing.assert_allclose(mean_c, c, atol=1e-12)

    def test_zero_prior_variance_is_inert(self):
        """A zero prior variance enters as V_FLOOR, and the implied posterior keeps it up to
        its own sharpening V_FLOOR (1 - V_FLOOR g), a relative 1e-12 g."""
        h, c = self._means()
        y = rand_complex(self.rng, self.cb.rows)
        mean, var = posterior(y, h, c, 0.0, 0.3, 0.1, self.cb)
        np.testing.assert_allclose(mean, h)
        assert V_FLOOR * (1 - 1e-9) < var <= V_FLOOR

    def test_matches_dense_joint_lmmse(self):
        """Mean and trace-averaged variance agree with direct covariance
        inversion over the stacked unknowns."""
        v_h, v_c, sw2 = 0.31, 0.12, 0.05
        h, c = self._means()
        y = rand_complex(self.rng, self.cb.rows)
        mean_h, var_h = posterior(y, h, c, v_h, v_c, sw2, self.cb)
        mean_c, var_c = posterior(y, h, c, v_h, v_c, sw2, self.cb, slopes=True)
        h_ref, c_ref, vh_ref, vc_ref = dense_joint_lmmse(
            y, dense_A(self.cb), dense_B(self.cb), h, c, v_h, v_c, sw2,
        )
        assert np.linalg.norm(mean_h - h_ref) / np.linalg.norm(h_ref) < 1e-8
        assert np.linalg.norm(mean_c - c_ref) / np.linalg.norm(c_ref) < 1e-8
        assert abs(var_h - vh_ref) / vh_ref < 1e-8
        assert abs(var_c - vc_ref) / vc_ref < 1e-8

    def test_posterior_variance_shrinks(self):
        v_h, v_c = 0.5, 0.2
        h, c = self._means()
        y = rand_complex(self.rng, self.cb.rows)
        assert posterior(y, h, c, v_h, v_c, 0.1, self.cb)[1] < v_h
        assert posterior(y, h, c, v_h, v_c, 0.1, self.cb, slopes=True)[1] < v_c

    def test_antenna_batch_matches_per_column(self):
        """Batched antennas reproduce each single-antenna result exactly."""
        M = 3
        n = self.cb.cols
        means_h = rand_complex(self.rng, n, M)
        means_c = rand_complex(self.rng, n, M)
        v_h = np.array([0.2, 0.5, 0.9])
        v_c = np.array([0.1, 0.05, 0.3])
        Y = rand_complex(self.rng, self.cb.rows, M)
        mean, var = posterior(Y, means_h, means_c, v_h, v_c, 0.07, self.cb)
        for m in range(M):
            mean_m, var_m = posterior(Y[:, m], means_h[:, m], means_c[:, m],
                                      float(v_h[m]), float(v_c[m]), 0.07, self.cb)
            np.testing.assert_allclose(mean[:, m], mean_m, rtol=1e-13)
            np.testing.assert_allclose(var[m], var_m, rtol=1e-13)


class TestLinearExtrinsic:
    """The closed form equals the posterior divided by the prior message, and its
    forward product equals the operator applied to it."""

    def setup_method(self):
        self.cb = build_codebook(K=64, N=8, T=4, Q=2, seed=4)
        rng = np.random.default_rng(12)
        M = 3
        self.h, self.v_h = rand_complex(rng, self.cb.cols, M), np.array([0.2, 0.5, 0.9])
        self.c, self.v_c = rand_complex(rng, self.cb.cols, M), np.array([0.1, 0.05, 0.3])
        self.Y = rand_complex(rng, self.cb.rows, M)
        self.sigma = sigma_of(self.v_h, self.v_c, 0.07, self.cb)
        self.resid = (self.Y - forward(self.cb, self.h)
                      - self.cb.D_diag[:, None] * forward(self.cb, self.c))

    def _check(self, v_max):
        """Both branches against the reference with the message clamp lmmse.V_MAX = v_max."""
        cb, sigma = self.cb, self.sigma
        for x, v, weight, slopes in [(self.h, self.v_h, 1.0, False),
                                     (self.c, self.v_c, cb.D_diag[:, None], True)]:
            post_mean, post_var = lmmse_posterior(self.Y, self.h, self.c, self.v_h, self.v_c,
                                                  sigma, cb, slopes)
            fwd_pri = weight * forward(cb, x)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lmmse, "V_MAX", v_max)
                ref_mean, ref_var = extrinsic_message(post_mean, post_var, x, v)
                x_ext, v_ext, fwd_ext = linear_extrinsic(spectrum(cb, x), v, fwd_pri, self.resid,
                                                         sigma, weight, cb, block(cb, 3))
            x_ext = x_ext.reshape(x.shape)
            informative = v_ext < v_max  # a clamped message passes the mean, not the variance
            np.testing.assert_allclose(combine(x_ext, v_ext, x, v)[1][informative],
                                       post_var[informative], rtol=1e-12)
            np.testing.assert_allclose(v_ext, ref_var, rtol=1e-12)
            err = np.max(np.abs(x_ext - ref_mean)) / np.max(np.abs(ref_mean))
            assert err < 1e-12
            direct = weight * forward(cb, x_ext)
            assert np.max(np.abs(fwd_ext - direct)) / np.max(np.abs(direct)) < 1e-12
        return ref_var

    def test_matches_posterior_divided_by_prior(self):
        assert np.all(self._check(V_MAX) < V_MAX)

    def test_clamped_antennas_pass_the_posterior_through(self):
        """With v_max between the antennas' extrinsic variances, some clamp and some do not."""
        v_ext = np.sort(self._check(V_MAX))
        v_max = float(np.sqrt(v_ext[0] * v_ext[1]))
        clamped = self._check(v_max)
        assert np.any(clamped == v_max) and np.any(clamped < v_max)

    def test_scalar_unit_weight_is_the_row_weight_path(self):
        """The means' scalar weight 1.0 and an all-ones (T*N, 1) row weight give bitwise-equal
        outputs, from linear_extrinsic and from the engine's branch alike.  K, Q and P are not
        powers of two, so a scalar-only product taken in another order rounds differently."""
        cb, rng = build_codebook(K=96, N=12, T=4, Q=3, P=1.3, seed=4), np.random.default_rng(13)
        x = rand_complex(rng, cb.Q, self.v_h.size, cb.K).transpose(2, 0, 1)  # (K, Q, M) blocks
        fwd, weights = forward(cb, x), (1.0, np.ones((cb.rows, 1)))
        sigma = sigma_of(self.v_h, self.v_c, 0.07, cb)
        resid = rand_complex(rng, cb.rows, self.v_h.size)

        def same(a, b):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()

        scalar, rows = (linear_extrinsic(x, self.v_h, fwd, resid, sigma, w, cb,
                                         block(cb, self.v_h.size)) for w in weights)
        for a, b in zip(scalar, rows):
            same(a, b)
        diags = [engine.TurboDiagnostics() for _ in weights]
        slots = [np.empty((2, cb.Q, self.v_h.size, cb.K), complex).transpose(0, 3, 1, 2)
                 for _ in weights]  # each call's own ext and outgoing spectrum workspace slots
        scalar, rows = (engine._branch(resid, sigma, x, self.v_h, fwd, w, 1.0, (0.2, 0.0), cb, diag,
                                       *ws)
                        for w, diag, ws in zip(weights, diags, slots))
        for a, b in zip(scalar[:4], rows[:4]):
            same(a, b)
        for name in ("lambda_post", "evidence", "gain", "phi", "column_var", "energy"):
            same(getattr(scalar[4], name), getattr(rows[4], name))
        assert diags[0].clamp_events == diags[1].clamp_events


class TestBitwiseAlgebra:
    """linear_extrinsic casts each real factor to complex itself and multiplies by 1/Sigma,
    as numpy's mixed complex-by-real operations do inside (a division by Sigma + 0j
    multiplies by 1/Sigma), so its outputs are bitwise those of that mixed algebra."""

    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("M", [1, 4, 8])
    def test_bitwise_the_mixed_algebra(self, monkeypatch, M, clamped):
        """For the means' weight 1.0 and the slopes' D, as a column and as the engine's full
        (T*N, M) array, with or without an antenna at the clamp.  K, Q and P are not powers
        of two, so a product taken in another order rounds differently."""
        cb, rng = build_codebook(K=96, N=12, T=4, Q=3, P=1.3, seed=4), np.random.default_rng(M)
        x = rand_complex(rng, cb.Q, M, cb.K).transpose(2, 0, 1)  # device-contiguous blocks
        v_h, v_c = rng.uniform(0.05, 1.0, M), rng.uniform(0.01, 0.3, M)
        sigma, resid = sigma_of(v_h, v_c, 0.07, cb), rand_complex(rng, cb.rows, M)
        d = cb.D_diag[:, None]
        for weight, forms in ((1.0, [1.0]), (d, [d, np.repeat(d, M, axis=1)])):
            fwd = weight * forward(cb, x)
            if clamped:  # the clamp just below the largest extrinsic variance
                v_ext = linear_extrinsic_algebra(None, v_h, fwd, resid, sigma, weight, cb)[1]
                monkeypatch.setattr(lmmse, "V_MAX", float(v_ext.max() * 0.999))
            want = linear_extrinsic_algebra(spectrum(cb, x), v_h, fwd, resid, sigma, weight, cb)
            assert np.any(want[1] == lmmse.V_MAX) == clamped
            for w in forms:
                got = linear_extrinsic(spectrum(cb, x), v_h, fwd, resid, sigma, w, cb, block(cb, M))
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.strides == b.strides
                    assert a.tobytes() == b.tobytes()
            monkeypatch.undo()


class TestExtrinsic:
    def test_precision_subtraction(self):
        mean, var = extrinsic_message(np.array([1.0 + 0j]), 0.5, np.array([0.0 + 0j]), 1.0)
        assert var == pytest.approx(1.0)
        assert mean[0] == pytest.approx(2.0)

    def test_recombination_round_trip(self):
        """Fusing the extrinsic output with the prior recovers the posterior."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 8
            v_pri = float(rng.uniform(0.5, 2.0))
            v_post = float(rng.uniform(0.05, 0.4))
            pri = rand_complex(rng, n)
            post = rand_complex(rng, n)
            ext_mean, ext_var = extrinsic_message(post, v_post, pri, v_pri)
            back_mean, back_var = combine(ext_mean, ext_var, pri, v_pri)
            assert abs(back_var - v_post) / v_post < 1e-12
            assert np.max(np.abs(back_mean - post)) < 1e-12 * np.max(np.abs(post))

    def test_uninformative_posterior_clamps(self):
        post = np.array([1.0 + 0j])
        mean, var = extrinsic_message(post, 2.0, np.array([0.5 + 0j]), 1.0)
        assert var == V_MAX
        assert mean[0] == post[0]

    def test_zero_posterior_variance_is_floored(self):
        """A zero posterior variance enters as V_FLOOR: a finite quotient, floored at V_FLOOR."""
        v_ext, alpha, beta = extrinsic(0.0, 1.0)
        assert np.all(np.isfinite([v_ext, alpha, beta]))
        assert v_ext >= V_FLOOR

    def test_mixed_antenna_clamping(self):
        mean, var = extrinsic_message(np.ones((4, 2), dtype=complex), np.array([0.5, 2.0]),
                                      np.zeros((4, 2), dtype=complex), np.array([1.0, 1.0]))
        assert var[0] == pytest.approx(1.0)
        assert var[1] == V_MAX
        np.testing.assert_allclose(mean[:, 0], 2.0)
        np.testing.assert_allclose(mean[:, 1], 1.0)


class TestGaussianMessage:
    """Guards on the messages, which the engine now carries as plain arrays."""

    def test_variance_floor(self):
        """A zero prior variance enters the linear module as V_FLOOR, and no
        variance it returns falls below it."""
        cb = build_codebook(K=8, N=4, T=2, Q=2, seed=0)
        zeros = np.zeros((cb.rows, 1), dtype=complex)
        sigma = sigma_of(0.0, np.zeros(1), 0.25, cb)
        _, v_ext, _ = linear_extrinsic(block(cb, 1), 0.0, zeros, zeros, sigma, 1.0, cb,
                                       block(cb, 1))
        assert np.all(v_ext >= V_FLOOR)

    def test_rejects_non_finite(self):
        """A non-finite message aborts the frame (no nonpositive message variance
        leaves the linear module: see the V_FLOOR test)."""
        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=0)
        priors = PriorParams(theta_H=1.0, theta_C=0.05, sigma_w2=0.1, lam=0.2)
        Y = np.zeros((cb.rows, 1), dtype=complex)
        Y[0] = np.nan
        with pytest.raises(NumericsError):
            run_turbo_mp(Y, cb, priors, TurboOptions(max_iters=1))
