"""Spike-and-slab denoiser tests against a brute-force scalar reference."""

import numpy as np
import pytest

from oracles import bg_scalar_reference, block_energy, post_var_elem
from turbomp import ParameterError, activity, detect, parallel
from turbomp.activity import fuse, logit, sigmoid
from turbomp.denoiser import bg_denoise_batch


def denoise_scalar(value, v, theta, lam, evidence=0.0):
    """One device with one sub-block and one antenna."""
    return bg_denoise_batch(np.array([[[value]]], dtype=complex), np.array([v]), theta,
                            np.array([lam]), evidence)


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
        assert np.all(post_var_elem(res) == 0)

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
                        assert post_var_elem(res)[0, 0, 0] == pytest.approx(var_ref, rel=1e-6,
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
            assert single.evidence[0] == pytest.approx(batch.evidence[k])

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

    def test_evidence_is_prior_free(self):
        rng = np.random.default_rng(2)
        pri = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        v = np.array([0.7, 0.7])
        a = bg_denoise_batch(pri, v, 1.0, np.full(3, 0.05))
        b = bg_denoise_batch(pri, v, 1.0, np.full(3, 0.95))
        np.testing.assert_allclose(a.evidence, b.evidence)

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
        assert np.all(post_var_elem(batch) >= 0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("value", [1e200, 1e155j, float("nan"), float("inf")])
    def test_non_finite_energy_names_pri_mean(self, value, lam):
        """An entry that is not finite, or whose |pri|^2 overflows, raises instead of
        returning NaN moments."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match="pri_mean"):
                denoise_scalar(value, 1.0, 1.0, lam)

    @pytest.mark.parametrize("value, theta, lam, evidence", [
        (1e150, 1.0, 0.0, np.inf), (0.0, 1e300, 1.0, -np.inf), (1e150, 1e300, 0.0, None),
        (1e150, 1e300, 0.5, None), (1e150, 1e300, 1.0, None)])
    def test_infinite_log_ratio(self, value, theta, lam, evidence):
        """At v = 1e-10 these inputs make the log-likelihood ratio of activity +inf, -inf or
        inf - inf.  The evidence is reported as +inf or -inf, a prior of exactly 0 or 1 gives
        exactly that posterior with finite moments, and an undefined ratio raises, naming theta
        and per_antenna_var, instead of returning NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            if evidence is None:
                with pytest.raises(ParameterError, match="theta and per_antenna_var"):
                    denoise_scalar(value, 1e-10, theta, lam)
                return
            den = denoise_scalar(value, 1e-10, theta, lam)
        assert den.lambda_post[0] == lam
        assert den.evidence[0] == evidence
        assert np.all(np.isfinite(np.concatenate([den.column_var, den.energy])))

    def test_opposing_certainties_fuse_to_the_prior(self):
        """The two infinite cases above, one denoiser certain a device is active and the other
        certain it is not, are zero net evidence: the fused posterior is the prior."""
        with np.errstate(over="ignore"):
            sure_on = denoise_scalar(1e150, 1e-10, 1.0, 0.05).evidence
            sure_off = denoise_scalar(0.0, 1e-10, 1e300, 0.05).evidence
        assert sure_on[0] == np.inf and sure_off[0] == -np.inf
        for lam in (0.05, 0.5, 0.9):
            assert fuse(lam, sure_on, sure_off)[0] == lam
            assert fuse(lam, sure_off, sure_on)[0] == lam
        assert detect(fuse(0.05, sure_on, sure_off), 0.5)[0] == 0


def masked_lambda_post(lam, log_ratio):
    """The former endpoint path: priors of exactly 0 or 1 copied through, the interior ones
    gathered, fused with the likelihood ratio and scattered back."""
    interior = (lam > 0) & (lam < 1)
    out = lam.copy()
    out[interior] = sigmoid((np.log(lam[interior]) - np.log1p(-lam[interior]))
                            - log_ratio[interior])
    return out


class TestPriorLogOdds:
    @pytest.mark.parametrize("K", [7, 1000])
    def test_an_endpoint_prior_leaves_the_other_devices_bitwise_alone(self, K):
        """Every lambda_pri goes through its log-odds: setting one prior to 0 or 1 gives that
        device exactly 0 or 1 and leaves every other device's posteriors bitwise as they were
        (log_ratio does not depend on lambda_pri, so their inputs are the same)."""
        rng = np.random.default_rng(K)
        pri = rng.standard_normal((K, 4, 3)) + 1j * rng.standard_normal((K, 4, 3))
        v = np.array([0.3, 1.0, 2.5])
        lam = np.concatenate([[1e-300, 1.0 - 2**-53, 0.5], rng.uniform(0.0, 1.0, K - 3)])
        fast = bg_denoise_batch(pri, v, 0.8, lam)
        for endpoint in (0.0, 1.0):
            masked = bg_denoise_batch(pri, v, 0.8, np.concatenate([lam[:-1], [endpoint]]))
            assert masked.lambda_post[-1] == endpoint
            assert np.array_equal(fast.lambda_post[:-1].view(np.int64),
                                  masked.lambda_post[:-1].view(np.int64))
            assert np.array_equal(fast.evidence.view(np.int64), masked.evidence.view(np.int64))
        scalar = bg_denoise_batch(pri, v, 0.8, 0.05)  # a broadcast scalar prior takes it too
        full = bg_denoise_batch(pri, v, 0.8, np.full(K, 0.05))
        assert np.array_equal(scalar.lambda_post.view(np.int64), full.lambda_post.view(np.int64))

    @pytest.mark.parametrize("K", [7, 1000])
    def test_mixed_priors_are_bitwise_the_masked_path(self, monkeypatch, K):
        """Priors mixing 0, 1, the extreme interior values 1e-300 and 1 - 2^-53 and random
        ones give exactly 0 and 1 at the endpoints and bitwise the masked path elsewhere."""
        calls = []

        def recorded(x):  # the last call is sigmoid(log_odds + evidence), the posterior's
            calls.append(np.array(x, dtype=float))
            return sigmoid(x)

        monkeypatch.setattr(activity, "sigmoid", recorded)
        rng = np.random.default_rng(K + 1)
        pri = rng.standard_normal((K, 4, 3)) + 1j * rng.standard_normal((K, 4, 3))
        lam = rng.uniform(0.0, 1.0, K)
        lam[:6] = [0.0, 1.0, 1e-300, 1.0 - 2**-53, 0.0, 1.0]
        lam[-1] = 0.0
        den = bg_denoise_batch(pri, np.array([0.3, 1.0, 2.5]), 0.8, lam)
        log_ratio = -den.evidence
        endpoint = (lam == 0) | (lam == 1)
        assert np.array_equal(calls[-1][~endpoint], logit(lam[~endpoint]) + den.evidence[~endpoint])
        assert np.array_equal(den.lambda_post[endpoint], lam[endpoint])
        want = masked_lambda_post(lam, log_ratio)
        assert np.array_equal(den.lambda_post.view(np.int64), want.view(np.int64))


class TestPriorEvidence:
    """The prior arrives as rate plus evidence, prior log-odds logit(lambda_pri) + evidence."""

    @staticmethod
    def inputs(K=200, seed=10):
        rng = np.random.default_rng(seed)
        pri = rng.standard_normal((K, 4, 3)) + 1j * rng.standard_normal((K, 4, 3))
        lam = rng.uniform(0.0, 1.0, K)
        lam[:4] = [0.0, 1.0, 1e-300, 1.0 - 2**-53]
        return pri, np.array([0.3, 1.0, 2.5]), lam, rng.normal(0.0, 5.0, K)

    def test_zero_evidence_is_bitwise_the_probability_path(self):
        """evidence 0, scalar or per device, gives bitwise the posterior of the prior lambda
        alone: sigmoid(logit(lambda) + the data's evidence), and lambda where it is 0 or 1."""
        pri, v, lam, _ = self.inputs()
        base = bg_denoise_batch(pri, v, 0.8, lam)
        log_odds = logit(lam)
        with np.errstate(invalid="ignore"):
            want = np.where(np.isinf(log_odds), lam, sigmoid(log_odds + base.evidence))
        for evidence in (0.0, np.zeros(lam.size)):
            den = bg_denoise_batch(pri, v, 0.8, lam, evidence)
            for got in (base.lambda_post, den.lambda_post):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            for name in ("evidence", "column_var", "energy"):
                assert getattr(den, name).tobytes() == getattr(base, name).tobytes()

    def test_rate_plus_evidence_is_the_fused_prior(self):
        """Handing over (lambda, e) gives the posterior of the fused prior fuse(lambda, e, 0), to
        the rounding of the probability round trip it skips."""
        pri, v, lam, evidence = self.inputs()
        lam = lam[4:]  # interior rates, which fuse takes
        pri, evidence = pri[4:], evidence[4:]
        a = bg_denoise_batch(pri, v, 0.8, lam, evidence)
        b = bg_denoise_batch(pri, v, 0.8, fuse(lam, evidence, 0.0))
        np.testing.assert_allclose(a.lambda_post, b.lambda_post, rtol=1e-12, atol=1e-300)
        assert np.array_equal(a.evidence, b.evidence)

    @pytest.mark.parametrize("evidence, want", [(np.inf, 1.0), (-np.inf, 0.0)])
    def test_infinite_evidence_is_a_certain_prior(self, evidence, want):
        """With an interior lambda, evidence of +inf or -inf gives exactly 1 or 0 whatever the
        data say, infinite data evidence the other way included."""
        pri, v, lam, _ = self.inputs()
        den = bg_denoise_batch(pri[4:], v, 0.8, lam[4:], evidence)
        assert np.all(den.lambda_post == want)
        with np.errstate(over="ignore"):
            for value, theta in ((1e150, 1.0), (0.0, 1e300)):  # data evidence +inf, then -inf
                assert denoise_scalar(value, 1e-10, theta, 0.5, evidence).lambda_post[0] == want

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_a_certain_rate_stays_certain(self, lam):
        """A lambda of exactly 0 or 1 keeps its posterior whatever both evidences, finite or
        infinite in its own direction, and the data's of either sign."""
        pri, v, _, evidence = self.inputs()
        same_way = np.inf if lam == 1.0 else -np.inf
        for e in (evidence, 700.0, -700.0, same_way):
            assert np.all(bg_denoise_batch(pri, v, 0.8, lam, e).lambda_post == lam)
        with np.errstate(over="ignore"):
            for value, theta in ((1e150, 1.0), (0.0, 1e300)):
                for e in (-5.0, 5.0, same_way):
                    assert denoise_scalar(value, 1e-10, theta, lam, e).lambda_post[0] == lam


class TestFrameCall:
    """The frame calls `bg_denoise_batch` with inputs it has bounded, and the function checks
    none of them."""

    @pytest.mark.parametrize("K, M", [(7, 1), (1000, 4), (1000, 8)])
    def test_any_layout_is_bitwise_the_device_contiguous_call(self, K, M):
        """A block in another layout (C-ordered (K, Q, M), or a strided view) is copied once
        into the device-contiguous layout: every field and moment is bitwise that of the call
        on device-contiguous blocks, which keeps its input uncopied, with a rate in (0, 1) and
        evidence that is zero or per device with -inf and +inf entries."""
        rng = np.random.default_rng(K + M)
        blocks = rng.standard_normal((4, M, K)) + 1j * rng.standard_normal((4, M, K))
        pri, v = blocks.transpose(2, 0, 1), rng.uniform(0.05, 2.0, M)
        wide = np.zeros((K, 4, 2 * M), dtype=complex)
        wide[:, :, ::2] = pri
        evidence = 3.0 * rng.standard_normal(K)
        evidence[:2] = [np.inf, -np.inf]
        for lam, e in ((0.05, 0.0), (0.05, evidence), (0.9, evidence)):
            want = bg_denoise_batch(pri, v, 0.8, lam, e)
            assert want.pri_mean.strides == pri.strides and np.shares_memory(want.pri_mean, pri)
            for other in (np.ascontiguousarray(pri), wide[:, :, ::2]):
                got = bg_denoise_batch(other, v, 0.8, lam, e)
                assert got.pri_mean.strides == pri.strides
                assert not np.shares_memory(got.pri_mean, other)
                for name in ("pri_mean", "lambda_post", "evidence", "gain", "phi", "column_var",
                             "s", "energy", "post_mean"):
                    a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("value, theta, match", [
        (np.nan, 1.0, "pri_mean"), (np.inf, 1.0, "pri_mean"),
        (1e150, 1e300, "theta and per_antenna_var")])
    def test_frame_call_keeps_the_numerics_guards(self, value, theta, match):
        """A non-finite s_km and an undefined log-likelihood ratio raise on the frame's call
        too, which its bounded inputs cannot rule out."""
        pri = np.zeros((1, 1, 3), dtype=complex).transpose(2, 0, 1)
        pri[1, 0, 0] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match=match):
                bg_denoise_batch(pri, np.array([1e-10]), theta, 0.5, 0.0)


class TestEnergyReduction:
    """s_km = sum_q |pri_kqm|^2, reduced over the float view of the device-contiguous block."""

    @pytest.mark.parametrize("layout", ["device_contiguous", "c_ordered"])
    def test_matches_the_dense_sum(self, layout):
        rng = np.random.default_rng(11)
        pri = 3.0 * (rng.standard_normal((4, 3, 150)) + 1j * rng.standard_normal((4, 3, 150)))
        pri = pri.transpose(2, 0, 1)
        if layout == "c_ordered":
            pri = np.ascontiguousarray(pri)
        den = bg_denoise_batch(pri, np.array([0.3, 1.1, 0.05]), 0.8, 0.3)
        want = block_energy(pri)
        assert np.max(np.abs(den.s - want) / want) <= 1e-14
        assert np.shares_memory(den.pri_mean, pri) == (layout == "device_contiguous")
        assert den.pri_mean.transpose(1, 2, 0).flags.c_contiguous

    @pytest.mark.parametrize("M", [8, 5])
    def test_bitwise_split_or_not(self, monkeypatch, M):
        """At K=16000 the reduction and every moment are bitwise the same whether the antennas
        run as two halves (MIN_SIZE 0, as the default splits such a block) or whole (MIN_SIZE
        above the block's size), odd antenna counts included."""
        rng = np.random.default_rng(12 + M)
        K = 16000
        pri = (rng.standard_normal((4, M, K)) + 1j * rng.standard_normal((4, M, K)))
        v, lam = rng.uniform(0.1, 2.0, M), rng.uniform(0.0, 1.0, K)
        outputs = []
        for size in (0, 4 * M * K + 1):
            monkeypatch.setattr(parallel, "MIN_SIZE", size)
            den = bg_denoise_batch(pri.transpose(2, 0, 1), v, 0.8, lam)
            outputs.append(b"".join(np.ascontiguousarray(getattr(den, name)).tobytes() for name in
                                    ("s", "lambda_post", "evidence", "column_var", "energy")))
        assert outputs[0] == outputs[1]


class TestColumnVariance:
    def test_constant_variances(self):
        rng = np.random.default_rng(5)
        pri = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
        batch = bg_denoise_batch(pri, np.array([0.5, 0.5]), 1.0, np.full(6, 0.5))
        # certainly active with theta = 1 and v = 0.17 / 0.83: every element has variance 0.17
        flat = bg_denoise_batch(pri[:4], np.full(2, 0.17 / 0.83), 1.0, np.ones(4))
        np.testing.assert_allclose(post_var_elem(flat), 0.17)
        np.testing.assert_allclose(flat.column_var, [0.17, 0.17])
        np.testing.assert_allclose(batch.column_var, post_var_elem(batch).mean(axis=(0, 1)))

    def test_all_inactive_gives_zero(self):
        pri = np.ones((4, 2, 3), dtype=complex)
        batch = bg_denoise_batch(pri, np.array([1.0, 1.0, 1.0]), 1.0, np.zeros(4))
        np.testing.assert_array_equal(batch.column_var, np.zeros(3))

    def test_matches_direct_resummation(self):
        rng = np.random.default_rng(6)
        pri = rng.standard_normal((8, 4, 3)) + 1j * rng.standard_normal((8, 4, 3))
        batch = bg_denoise_batch(pri, np.array([0.2, 0.9, 0.4]), 1.3, rng.uniform(0.1, 0.9, 8))
        direct, var = np.zeros(3), post_var_elem(batch)
        for k in range(8):
            for q in range(4):
                direct += var[k, q]
        direct /= 8 * 4
        np.testing.assert_allclose(batch.column_var, direct, atol=1e-12)


class TestLayout:
    def test_device_contiguous_input_is_read_in_place(self):
        """A (K, Q, M) input with the strides of a C-ordered (Q, M, K) array gives the
        C-ordered input's moments to 1e-14 and is kept without a copy."""
        rng = np.random.default_rng(8)
        pri = rng.standard_normal((300, 4, 3)) + 1j * rng.standard_normal((300, 4, 3))
        device_contiguous = np.ascontiguousarray(pri.transpose(1, 2, 0)).transpose(2, 0, 1)
        v, lam = np.array([0.3, 1.1, 0.05]), rng.uniform(0.0, 1.0, 300)
        a = bg_denoise_batch(pri, v, 0.8, lam)
        b = bg_denoise_batch(device_contiguous, v, 0.8, lam)
        for name in ("lambda_post", "evidence", "column_var", "energy"):
            np.testing.assert_allclose(getattr(b, name), getattr(a, name), rtol=1e-14, atol=0)
        assert np.shares_memory(b.pri_mean, device_contiguous)

    @pytest.mark.parametrize("size", [0, parallel.MIN_SIZE])
    def test_post_mean_is_c_ordered_and_bitwise_split_or_not(self, monkeypatch, size):
        """post_mean of a device-contiguous K=16000 input is the C-ordered product
        lambda_post * (gain * pri_mean), bitwise, whether its passes split over devices
        (MIN_SIZE 0) or not (the default, which a 100-device input does not reach)."""
        monkeypatch.setattr(parallel, "MIN_SIZE", size)
        rng = np.random.default_rng(9)
        for K in (16000, 100):
            pri = rng.standard_normal((4, 8, K)) + 1j * rng.standard_normal((4, 8, K))
            den = bg_denoise_batch(pri.transpose(2, 0, 1), rng.uniform(0.1, 2.0, 8), 0.8,
                                   rng.uniform(0.0, 1.0, K))
            want = np.multiply(den.pri_mean, den.gain, order="C")
            want *= den.lambda_post[:, None, None]
            got = den.post_mean
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


class TestClosedFormMoments:
    """The per-antenna and per-device moments equal sums over the built tensors."""

    def test_moments_match_tensor_sums(self):
        rng = np.random.default_rng(7)
        for scale, v in [(1.0, np.array([0.3, 1.1, 0.05])), (30.0, np.array([1e-3, 2.0, 0.4]))]:
            pri = scale * (rng.standard_normal((50, 4, 3)) + 1j * rng.standard_normal((50, 4, 3)))
            lam = rng.uniform(0.0, 1.0, 50)
            lam[:3] = [0.0, 1.0, 0.5]
            batch = bg_denoise_batch(pri, v, 0.8, lam)
            mean, var = batch.post_mean, post_var_elem(batch)
            col = var.mean(axis=(0, 1))
            energy = np.sum(np.abs(mean) ** 2 + var, axis=(1, 2))
            np.testing.assert_allclose(batch.column_var, col, rtol=1e-12)
            np.testing.assert_allclose(batch.energy, energy, rtol=1e-12, atol=1e-12 * energy.max())
