"""Spike-and-slab denoiser tests against a brute-force scalar reference."""

import numpy as np
import pytest

from oracles import bg_scalar_reference
from turbomp import ParameterError, bg_denoise_batch


def denoise_scalar(value, v, theta, lam):
    """One device with one sub-block and one antenna."""
    return bg_denoise_batch(np.array([[[value]]], dtype=complex), np.array([v]), theta,
                            np.array([lam]))


class TestScalarCases:
    def test_reference_point(self):
        """pri=1, v=1, theta=1, lam=0.5 gives the known posterior weights."""
        res = denoise_scalar(1.0, 1.0, 1.0, 0.5)
        assert res.lambda_post[0] == pytest.approx(0.4519, abs=2e-4)
        assert res.post_mean[0, 0, 0].real == pytest.approx(0.2259, abs=1e-4)

    def test_certainly_inactive(self):
        res = denoise_scalar(3.0, 1.0, 1.0, 0.0)
        assert res.lambda_post[0] == 0.0
        assert np.all(res.post_mean == 0)
        assert np.all(res.post_var_elem == 0)

    def test_certainly_active_low_noise(self):
        res = denoise_scalar(2.0 - 1.0j, 1e-9, 1.0, 1.0)
        assert res.lambda_post[0] == 1.0
        assert res.post_mean[0, 0, 0] == pytest.approx(2.0 - 1.0j, rel=1e-6)

    def test_matches_numerical_integration(self):
        """Posterior weight/mean/variance match brute-force quadrature."""
        for value in (0.3 + 0.0j, -1.5 + 2.0j, 4.0 - 4.0j):
            for v in (0.1, 1.0):
                for theta in (0.5, 2.0):
                    for lam in (0.05, 0.5):
                        res = denoise_scalar(value, v, theta, lam)
                        lam_ref, mean_ref, var_ref = bg_scalar_reference(value, v, theta, lam)
                        assert res.lambda_post[0] == pytest.approx(lam_ref, rel=1e-6)
                        assert res.post_mean[0, 0, 0] == pytest.approx(mean_ref, rel=1e-6)
                        assert res.post_var_elem[0, 0, 0] == pytest.approx(var_ref, rel=1e-6,
                                                                           abs=1e-12)

    def test_log_domain_survives_huge_inputs(self):
        """No overflow for |pri|^2 up to 1e6 times the message variance."""
        res = denoise_scalar(1000.0, 1.0, 1.0, 0.5)
        assert np.isfinite(res.lambda_post[0]) and res.lambda_post[0] == 1.0
        assert np.isfinite(res.post_mean).all()


class TestBatchBehaviour:
    def test_single_matches_batch(self):
        rng = np.random.default_rng(0)
        pri = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        v = np.array([0.4, 1.2])
        lam = rng.uniform(0.1, 0.9, 5)
        batch = bg_denoise_batch(pri, v, 0.8, lam)
        for k in range(5):
            single = bg_denoise_batch(pri[k][None], v, 0.8, np.array([lam[k]]))
            np.testing.assert_allclose(single.post_mean[0], batch.post_mean[k])
            assert single.lambda_post[0] == pytest.approx(batch.lambda_post[k])
            assert single.pi[0] == pytest.approx(batch.pi[k])

    def test_lambda_post_monotone_in_prior(self):
        """Sweeping the prior activity up never lowers the posterior."""
        rng = np.random.default_rng(1)
        pri = rng.standard_normal((1, 4, 2)) + 1j * rng.standard_normal((1, 4, 2))
        grid = np.linspace(0.01, 0.99, 25)
        values = [
            bg_denoise_batch(pri, np.array([0.5, 0.5]), 1.0, np.array([g])).lambda_post[0]
            for g in grid
        ]
        assert np.all(np.diff(values) >= 0)

    def test_pi_is_prior_free(self):
        rng = np.random.default_rng(2)
        pri = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        v = np.array([0.7, 0.7])
        a = bg_denoise_batch(pri, v, 1.0, np.full(3, 0.05))
        b = bg_denoise_batch(pri, v, 1.0, np.full(3, 0.95))
        np.testing.assert_allclose(a.pi, b.pi)

    def test_mmse_shrinkage_bound(self):
        """post mean never exceeds the linear-shrinkage image of the input."""
        rng = np.random.default_rng(3)
        pri = rng.standard_normal((20, 4, 3)) + 1j * rng.standard_normal((20, 4, 3))
        v = np.array([0.2, 0.6, 1.8])
        theta = 0.9
        batch = bg_denoise_batch(pri, v, theta, np.full(20, 0.3))
        mu_norm = np.linalg.norm(pri * (theta / (theta + v)))
        assert np.linalg.norm(batch.post_mean) <= mu_norm + 1e-12
        assert mu_norm <= np.linalg.norm(pri) * theta / (theta + v.min()) + 1e-12

    def test_posterior_variance_nonnegative(self):
        rng = np.random.default_rng(4)
        pri = 50.0 * (rng.standard_normal((10, 2, 2)) + 1j * rng.standard_normal((10, 2, 2)))
        batch = bg_denoise_batch(pri, np.array([1e-6, 1e-6]), 1.0, np.full(10, 0.5))
        assert np.all(batch.post_var_elem >= 0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bg_denoise_batch(np.zeros((2, 2)), np.array([1.0]), 1.0, 0.5)
        with pytest.raises(ParameterError):
            bg_denoise_batch(np.zeros((2, 2, 1), dtype=complex), np.array([0.0]), 1.0, 0.5)
        with pytest.raises(ParameterError):
            bg_denoise_batch(np.zeros((2, 2, 1), dtype=complex), np.array([1.0]), 0.0, 0.5)
        with pytest.raises(ParameterError):
            bg_denoise_batch(np.zeros((2, 2, 1), dtype=complex), np.array([1.0]), 1.0, 1.5)


class TestColumnVariance:
    def test_constant_variances(self):
        rng = np.random.default_rng(5)
        pri = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
        batch = bg_denoise_batch(pri, np.array([0.5, 0.5]), 1.0, np.full(6, 0.5))
        # certainly active with theta = 1 and v = 0.17 / 0.83: every element has variance 0.17
        flat = bg_denoise_batch(pri[:4], np.full(2, 0.17 / 0.83), 1.0, np.ones(4))
        np.testing.assert_allclose(flat.post_var_elem, 0.17)
        np.testing.assert_allclose(flat.column_var, [0.17, 0.17])
        np.testing.assert_allclose(batch.column_var, batch.post_var_elem.mean(axis=(0, 1)))

    def test_all_inactive_gives_zero(self):
        pri = np.ones((4, 2, 3), dtype=complex)
        batch = bg_denoise_batch(pri, np.array([1.0, 1.0, 1.0]), 1.0, np.zeros(4))
        np.testing.assert_array_equal(batch.column_var, np.zeros(3))

    def test_matches_direct_resummation(self):
        rng = np.random.default_rng(6)
        pri = rng.standard_normal((8, 4, 3)) + 1j * rng.standard_normal((8, 4, 3))
        batch = bg_denoise_batch(pri, np.array([0.2, 0.9, 0.4]), 1.3, rng.uniform(0.1, 0.9, 8))
        direct = np.zeros(3)
        for k in range(8):
            for q in range(4):
                direct += batch.post_var_elem[k, q]
        direct /= 8 * 4
        np.testing.assert_allclose(batch.column_var, direct, atol=1e-12)


class TestClosedFormMoments:
    """The per-antenna and per-device moments equal sums over the built tensors."""

    def test_moments_match_tensor_sums(self):
        rng = np.random.default_rng(7)
        for scale, v in [(1.0, np.array([0.3, 1.1, 0.05])), (30.0, np.array([1e-3, 2.0, 0.4]))]:
            pri = scale * (rng.standard_normal((50, 4, 3)) + 1j * rng.standard_normal((50, 4, 3)))
            lam = rng.uniform(0.0, 1.0, 50)
            lam[:3] = [0.0, 1.0, 0.5]
            batch = bg_denoise_batch(pri, v, 0.8, lam)
            mean, var = batch.post_mean, batch.post_var_elem
            col = var.mean(axis=(0, 1))
            energy = np.sum(np.abs(mean) ** 2 + var, axis=(1, 2))
            np.testing.assert_allclose(batch.column_var, col, rtol=1e-12)
            np.testing.assert_allclose(batch.energy, energy, rtol=1e-12, atol=1e-12 * energy.max())
