"""Activity evidence fusion and threshold detection tests."""

import numpy as np
import pytest

from oracles import sigmoid_masked
from turbomp import ParameterError, activity_posterior, detect
from turbomp.activity import fuse
from turbomp.logodds import logit, sigmoid


class TestCrossPrior:
    """A denoiser's cross prior is `activity_posterior` with a neutral (0.5) second evidence."""

    def test_uninformative_returns_prior_exactly(self):
        for lam in (0.05, 0.31, 0.9):
            assert activity_posterior(0.5, 0.5, lam) == lam

    def test_certain_evidence(self):
        assert activity_posterior(1.0, 0.5, 0.05) == pytest.approx(1.0, abs=1e-12)
        assert activity_posterior(0.0, 0.5, 0.95) == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        assert activity_posterior(0.9, 0.5, 0.05) == pytest.approx(0.045 / 0.14, rel=1e-12)

    def test_vectorized(self):
        out = activity_posterior(np.array([0.5, 0.9]), 0.5, 0.05)
        assert out[0] == 0.05
        assert out[1] == pytest.approx(0.045 / 0.14, rel=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (1.2, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterError):
                activity_posterior(bad, 0.5, 0.5)
            with pytest.raises(ParameterError):
                activity_posterior(0.9, 0.5, bad)
            with pytest.raises(ParameterError):
                activity_posterior(np.array([0.5, bad]), 0.5, 0.1)


class TestSigmoid:
    def test_bit_equal_to_masked_formula(self):
        special = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        grid = np.concatenate([special, np.linspace(-50, 50, 2001), np.geomspace(1e-300, 1e3, 500),
                               -np.geomspace(1e-300, 1e3, 500)])
        got, want = sigmoid(grid), sigmoid_masked(grid)
        # NaN maps to NaN; its sign bit is not a value, so only NaN-ness is compared
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 1
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
        for x in special[:-1]:
            assert isinstance(sigmoid(x), float)
            assert np.float64(sigmoid(x)).view(np.int64) == sigmoid_masked(x).view(np.int64)


class TestActivityPosterior:
    def test_both_uninformative_returns_prior_exactly(self):
        for lam in (0.05, 0.5, 0.77):
            assert activity_posterior(0.5, 0.5, lam) == lam

    def test_direct_substitution(self):
        assert activity_posterior(0.9, 0.9, 0.05) == pytest.approx(0.81, rel=1e-12)

    def test_vetoing_evidence(self):
        assert activity_posterior(0.0, 0.9, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, lam = rng.uniform(0.0, 1.0, 3)
            assert activity_posterior(a, b, lam) == activity_posterior(b, a, lam)

    def test_monotone_in_every_argument(self):
        rng = np.random.default_rng(1)
        a, b, lam = rng.uniform(0.01, 0.99, (3, 10_000))
        bump = 0.005
        base = activity_posterior(a, b, lam)
        assert np.all(activity_posterior(np.minimum(a + bump, 1.0), b, lam) >= base)
        assert np.all(activity_posterior(a, np.minimum(b + bump, 1.0), lam) >= base)
        assert np.all(activity_posterior(a, b, np.minimum(lam + bump, 1.0)) >= base)

    def test_extreme_inputs_stay_finite(self):
        out = activity_posterior(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 0.5)
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999 and out[1] < 1e-12


class TestFuse:
    """The engine fuses logits taken once per denoiser output; `activity_posterior` takes them
    per call.  Both give the same bits, at the clamps and the neutral 0.5 as elsewhere."""

    PROBS = np.concatenate([np.random.default_rng(7).uniform(0.0, 1.0, 40),
                            [0.0, 1.0, 0.5, 1e-20, 1e-300, 5e-324, 1.0 - 2**-53, 2**-53]])
    LAMS = [0.0, 1.0, 0.5, 0.05, 1e-20, 1e-6, 1.0 - 1e-6, 0.123456789]

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    @pytest.mark.parametrize("lam", LAMS)
    def test_fused_sums_are_bitwise_activity_posterior(self, lam):
        a, b = (grid.ravel() for grid in np.meshgrid(self.PROBS, self.PROBS))
        assert np.array_equal(self.bits(fuse(logit(a) + logit(b), lam)),
                              self.bits(activity_posterior(a, b, lam)))
        assert np.array_equal(self.bits(fuse(logit(a), lam)),
                              self.bits(activity_posterior(a, 0.5, lam)))
        zeros = np.zeros(a.size)  # the engine's neutral start: logit(0.5) is +0.0
        assert np.array_equal(self.bits(logit(np.full(a.size, 0.5))), self.bits(zeros))
        assert np.array_equal(self.bits(fuse(zeros, lam)),
                              self.bits(activity_posterior(np.full(a.size, 0.5), 0.5, lam)))

    def test_the_clamps_are_exercised(self):
        assert {logit(p) for p in (0.0, 1e-20, 1e-300)} == {-40.0}
        assert logit(1.0) == 40.0


class TestDetect:
    def test_threshold_is_inclusive(self):
        post = np.array([0.6, 0.5, 0.4])
        np.testing.assert_array_equal(detect(post, 0.5), [1, 1, 0])

    def test_prior_level_posteriors_all_rejected(self):
        post = np.full(10, 0.05)
        assert detect(post, 0.5).sum() == 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        post = rng.uniform(0, 1, 500)
        prev = detect(post, 0.05)
        for thr in (0.2, 0.5, 0.8, 0.95):
            cur = detect(post, thr)
            assert np.all(cur <= prev)
            prev = cur

    def test_threshold_bounds(self):
        for thr in (0.0, 1.0, -0.2):
            with pytest.raises(ParameterError):
                detect(np.array([0.5]), thr)
