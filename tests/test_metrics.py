"""Channel-error and detection metric tests."""

import numpy as np
import pytest

from oracles import e1, e2, nmse_full_expansion
from turbomp import (
    BlockwiseBasis,
    ChannelRealization,
    DimensionError,
    ParameterError,
    detection_metrics,
    nmse,
    roc_sweep,
    sample_blockwise_exact,
)


class TestNmse:
    def setup_method(self):
        self.basis = BlockwiseBasis(8, 2)
        self.truth, self.real = sample_blockwise_exact(
            20, 2, self.basis, 0.4, 1.0, 0.05, seed=0
        )

    def test_perfect_estimate_is_zero(self):
        value = nmse(self.real, self.truth.H, self.truth.C, self.basis)
        assert value == pytest.approx(0.0, abs=1e-28)

    def test_zero_estimate_is_one(self):
        zero = np.zeros_like(self.truth.H)
        value = nmse(self.real, zero, zero, self.basis)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_matches_independent_resummation(self):
        rng = np.random.default_rng(1)
        H = self.truth.H + 0.1 * rng.standard_normal(self.truth.H.shape)
        C = self.truth.C + 0.1 * rng.standard_normal(self.truth.C.shape)
        value = nmse(self.real, H, C, self.basis)

        num = den = 0.0
        E1, E2 = e1(self.basis), e2(self.basis)
        K = self.real.G.shape[0]
        Q = self.basis.Q
        for k in range(K):
            recon = E1 @ H[k * Q : (k + 1) * Q] + E2 @ C[k * Q : (k + 1) * Q]
            num += np.sum(np.abs(self.real.G[k] - recon) ** 2)
            if self.real.activity[k]:
                den += np.sum(np.abs(self.real.G[k]) ** 2)
        assert value == pytest.approx(num / den, rel=1e-12)

    def test_inactive_estimate_energy_matches_full_expansion(self):
        """Estimates on every device, correlated means and slopes included, score
        as if every device were expanded to all subcarriers."""
        basis = BlockwiseBasis(24, 4)
        _, real = sample_blockwise_exact(60, 3, basis, 0.3, 1.0, 0.05, seed=5)
        rng = np.random.default_rng(6)
        shape = (60 * 4, 3)
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        C = 0.3 * H + 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.any(real.activity == 0) and np.any(real.activity == 1)
        value = nmse(real, H, C, basis)
        ref = nmse_full_expansion(real.G, H, C, basis, real.activity)
        assert value == pytest.approx(ref, rel=1e-12)

    def test_false_positive_energy_enters_numerator(self):
        H = self.truth.H.copy()
        inactive = np.flatnonzero(self.real.activity == 0)[0]
        H[inactive * 2] = 10.0
        bumped = nmse(self.real, H, self.truth.C, self.basis)
        assert bumped > 0.1

    def test_antenna_permutation_invariance(self):
        value = nmse(self.real, self.truth.H, self.truth.C, self.basis)
        perm = [1, 0]
        flipped_real = ChannelRealization(activity=self.real.activity,
                                          G_active=self.real.G_active[:, :, perm])
        flipped = nmse(flipped_real, self.truth.H[:, perm], self.truth.C[:, perm], self.basis)
        assert value == pytest.approx(flipped, abs=1e-28)

    def test_no_active_devices_is_an_error(self):
        with pytest.raises(ParameterError):
            nmse(ChannelRealization(activity=np.zeros(20, dtype=np.int8),
                                    G_active=np.zeros((0, 8, 2), dtype=complex)),
                 self.truth.H, self.truth.C, self.basis)

    def test_estimates_that_do_not_fit_are_an_error(self):
        H, C = self.truth.H, self.truth.C
        for args in ((H, C[:, :1], self.basis), (H[:-2], C[:-2], self.basis),
                     (H, C, BlockwiseBasis(12, 2))):
            with pytest.raises(DimensionError):
                nmse(self.real, *args)


class TestDetectionMetrics:
    def test_direct_count(self):
        m = detection_metrics(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
        assert (m.p_miss, m.p_false, m.pe) == (0.25, 0.25, 0.5)
        assert (m.miss_count, m.false_count) == (1, 1)

    def test_exact_detection(self):
        alpha = np.array([1, 0, 1, 1, 0])
        m = detection_metrics(alpha, alpha)
        assert m.pe == 0.0 and m.miss_count == 0 and m.false_count == 0

    def test_all_active_complement(self):
        alpha = np.ones(4, dtype=int)
        m = detection_metrics(alpha, 1 - alpha)
        assert m.p_miss == 1.0 and m.p_false == 0.0

    def test_pe_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.integers(0, 2, 30)
            b = rng.integers(0, 2, 30)
            m = detection_metrics(a, b)
            assert m.pe == pytest.approx(m.p_miss + m.p_false, abs=1e-15)
            assert m.pe * m.num_devices == pytest.approx(m.miss_count + m.false_count)


    def test_shape_checks(self):
        for truth, decided in ((np.ones(4), np.ones(5)), (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(DimensionError):
                detection_metrics(truth, decided)


class TestRocSweep:
    def test_endpoint_behaviour(self):
        rng = np.random.default_rng(3)
        alpha = rng.integers(0, 2, 200)
        post = np.clip(rng.uniform(0.01, 0.99, 200), 0.01, 0.99)
        points = roc_sweep(post, alpha, [0.005, 0.995])
        assert points[0][0] == 0.0  # nothing missed at a tiny threshold
        assert points[-1][1] == 0.0  # nothing falsely flagged at a huge threshold

    def test_monotone_curves(self):
        rng = np.random.default_rng(4)
        alpha = rng.integers(0, 2, 500)
        post = rng.uniform(0, 1, 500)
        thresholds = np.linspace(0.02, 0.98, 33)
        points = roc_sweep(post, alpha, thresholds)
        p_miss = [p[0] for p in points]
        p_false = [p[1] for p in points]
        assert np.all(np.diff(p_miss) >= 0)
        assert np.all(np.diff(p_false) <= 0)

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            roc_sweep(np.array([0.5]), np.array([1]), [0.5, 0.2])
        with pytest.raises(ParameterError):
            roc_sweep(np.array([0.5]), np.array([1]), [0.0, 0.5])
