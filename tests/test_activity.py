"""Activity evidence fusion and threshold detection tests."""

import numpy as np
import pytest

from oracles import sigmoid_masked
from turbomp import ParameterError, detect
from turbomp.activity import fuse, logit, sigmoid


class TestCrossPrior:
    """One denoiser's evidence against a zero second term: the activity that the other
    denoiser's prior (lam, evidence) stands for."""

    def test_uninformative_returns_prior_exactly(self):
        for lam in (0.05, 0.31, 0.9):
            assert fuse(lam, 0.0, 0.0) == lam

    def test_certain_evidence(self):
        assert fuse(0.05, np.inf, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert fuse(0.95, -np.inf, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        assert fuse(0.05, logit(0.9), 0.0) == pytest.approx(0.045 / 0.14, rel=1e-12)

    def test_vectorized(self):
        out = fuse(0.05, np.array([0.0, logit(0.9)]), 0.0)
        assert out[0] == 0.05
        assert out[1] == pytest.approx(0.045 / 0.14, rel=1e-12)

    def test_nan_evidence_reaches_detect_as_nan(self):
        """`fuse` validates nothing: a NaN term gives NaN, whatever the other term, and
        `detect` rejects it."""
        for other in (0.0, 3.0, np.inf, -np.inf):
            out = fuse(0.1, np.array([0.5, np.nan]), other)
            assert np.isfinite(out[0]) and np.isnan(out[1])
            with pytest.raises(ParameterError):
                detect(out, 0.5)


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

    def test_logit_is_exact_at_the_endpoints(self):
        assert logit(0.0) == -np.inf and logit(1.0) == np.inf and logit(0.5) == 0.0
        assert logit(1e-300) < -690.0 and logit(5e-324) < -744.0
        assert np.array_equal(logit(np.array([0.0, 1.0])), [-np.inf, np.inf])


class TestTwoEvidenceTerms:
    def test_both_uninformative_returns_prior_exactly(self):
        for lam in (0.05, 0.5, 0.77):
            assert fuse(lam, 0.0, 0.0) == lam

    def test_direct_substitution(self):
        assert fuse(0.05, logit(0.9), logit(0.9)) == pytest.approx(0.81, rel=1e-12)

    def test_vetoing_evidence(self):
        assert fuse(0.5, -np.inf, logit(0.9)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.normal(0.0, 10.0, 2)
            lam = rng.uniform(0.0, 1.0)
            assert fuse(lam, a, b) == fuse(lam, b, a)

    def test_monotone_in_every_argument(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(0.0, 5.0, (2, 10_000))
        lam = rng.uniform(0.01, 0.99, 10_000)
        bump = 0.005
        base = fuse(lam, a, b)
        assert np.all(fuse(lam, a + bump, b) >= base)
        assert np.all(fuse(lam, a, b + bump) >= base)
        assert np.all(fuse(np.minimum(lam + bump, 0.999), a, b) >= base)

    def test_extreme_inputs_stay_finite(self):
        """Certain agreement gives a certain posterior; opposing certainties give the prior."""
        out = fuse(0.5, np.array([np.inf, -np.inf, np.inf]), np.array([np.inf, -np.inf, -np.inf]))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999 and out[1] < 1e-12
        assert out[2] == 0.5


class TestFuse:
    """The engine fuses each denoiser's evidence as reported, with no probability round trip:
    exact at zero net evidence and at +-inf, and the probability-domain product elsewhere."""

    EVIDENCE = np.concatenate([np.random.default_rng(7).normal(0.0, 20.0, 40),
                               [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 40.0, -40.0, 1e-300]])
    LAMS = [0.5, 0.05, 1e-20, 1e-6, 1.0 - 1e-6, 0.123456789]

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    @pytest.mark.parametrize("lam", LAMS)
    def test_a_zero_term_is_bitwise_the_same_in_either_place(self, lam):
        e = self.EVIDENCE
        for zero in (0.0, -0.0, np.zeros(e.size)):
            assert np.array_equal(self.bits(fuse(lam, e, 0.0)), self.bits(fuse(lam, e, zero)))
            assert np.array_equal(self.bits(fuse(lam, e, 0.0)), self.bits(fuse(lam, zero, e)))

    @pytest.mark.parametrize("lam", LAMS)
    def test_cancelling_evidence_returns_the_prior_bitwise(self, lam):
        """Zero net evidence, opposing certainties included, is the prior bit for bit."""
        e = self.EVIDENCE
        assert np.array_equal(self.bits(fuse(lam, e, -e)), self.bits(np.full(e.size, lam)))
        assert np.array_equal(self.bits(fuse(lam, np.zeros(e.size), 0.0)),
                              self.bits(np.full(e.size, lam)))
        assert fuse(lam, np.inf, -np.inf) == lam and fuse(lam, -np.inf, np.inf) == lam

    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_the_probability_product(self, lam):
        """lam pa pb / (lam pa pb + (1 - lam)(1 - pa)(1 - pb)) with pa = sigmoid(e_a) and
        1 - pa = sigmoid(-e_a), where no probability underflows (|e| <= 40)."""
        a, b = (grid.ravel() for grid in np.meshgrid(self.EVIDENCE, self.EVIDENCE))
        keep = (np.abs(a) <= 40) & (np.abs(b) <= 40)
        a, b = a[keep], b[keep]
        pa, pb, qa, qb = sigmoid(a), sigmoid(b), sigmoid(-a), sigmoid(-b)
        on, off = lam * pa * pb, (1 - lam) * qa * qb
        np.testing.assert_allclose(fuse(lam, a, b), on / (on + off), rtol=1e-12, atol=0)
        np.testing.assert_allclose(fuse(lam, a, 0.0), lam * pa / (lam * pa + (1 - lam) * qa),
                                   rtol=1e-12, atol=0)


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
