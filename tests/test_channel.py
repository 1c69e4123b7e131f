"""Channel generation and block-wise decomposition tests."""

import numpy as np
import pytest

from oracles import e1, e2, expected_mismatch_ratio
from turbomp import (
    BlockwiseBasis,
    ChannelRealization,
    ConfigurationError,
    DimensionError,
    MultipathProfile,
    ParameterError,
    load_pdp,
    project_blockwise,
    sample_activity,
    sample_blockwise_exact,
    sample_channel,
)
from turbomp.channel import example_pdp_path


def flat_profile():
    return MultipathProfile(powers=np.array([1.0]), delays=np.array([0.0]))


class TestActivity:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            sample_activity(0, 0.1, seed=0)
        for lam in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                sample_activity(10, lam, seed=0)

    def test_mean_activity_rate(self):
        """K=1000, lam=0.05 gives about 50 active devices on average."""
        counts = [sample_activity(1000, 0.05, seed=s).sum() for s in range(200)]
        assert abs(np.mean(counts) - 50.0) < 3.0

    def test_degenerate_rate_gives_all_zeros(self):
        alpha = sample_activity(4, 1e-12, seed=123)
        assert alpha.sum() == 0

    def test_binomial_concentration(self):
        """Empirical rate within 3 sigma of 0.3 for K = 1e5."""
        alpha = sample_activity(10**5, 0.3, seed=7)
        bound = 3.0 * np.sqrt(0.3 * 0.7 / 10**5)
        assert abs(alpha.mean() - 0.3) < bound

    def test_deterministic(self):
        a = sample_activity(500, 0.2, seed=42)
        b = sample_activity(500, 0.2, seed=42)
        assert np.array_equal(a, b)


class TestMultipathProfile:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MultipathProfile(powers=np.array([]), delays=np.array([]))
        with pytest.raises(ParameterError):
            MultipathProfile(powers=np.array([0.5, 0.5]), delays=np.array([1e-7, 1e-7]))
        with pytest.raises(ParameterError):
            MultipathProfile(powers=np.array([0.7, 0.2]), delays=np.array([0.0, 1e-7]))
        with pytest.raises(ParameterError, match="positive"):
            MultipathProfile(powers=np.array([1.0, 0.0]), delays=np.array([0.0, 1e-7]))

    def test_example_profile_loads(self):
        prof = load_pdp(example_pdp_path())
        assert abs(prof.powers.sum() - 1.0) < 1e-9
        assert np.all(np.diff(prof.delays) > 0)
        mean = np.sum(prof.powers * prof.delays)
        rms = np.sqrt(np.sum(prof.powers * prof.delays**2) - mean**2)
        assert 250e-9 < rms < 350e-9

    def test_load_pdp_parses_comments_and_normalizes(self, tmp_path):
        path = tmp_path / "p.pdp"
        path.write_text("# header\n2.0 0.0\n\n2.0 1e-7  # inline\n")
        prof = load_pdp(path)
        np.testing.assert_allclose(prof.powers, [0.5, 0.5])
        with pytest.raises(ParameterError):
            load_pdp_path = tmp_path / "bad.pdp"
            load_pdp_path.write_text("1.0\n")
            load_pdp(load_pdp_path)
        with pytest.raises(ParameterError, match="expected 'power delay'"):
            load_pdp_path.write_text("1 0\n1 1e-7s\n")
            load_pdp(load_pdp_path)
        with pytest.raises(ParameterError, match="total tap power"):
            load_pdp_path.write_text("0 0\n0 1e-7\n")
            load_pdp(load_pdp_path)

    @pytest.mark.parametrize("text", ["nan 0\n", "1 0\n1 nan\n", "1 0\n1 inf\n"])
    def test_load_pdp_rejects_non_finite_values(self, tmp_path, text):
        """A NaN power, or a NaN or infinite delay, would give a NaN channel."""
        path = tmp_path / "bad.pdp"
        path.write_text(text)
        with pytest.raises(ParameterError, match="finite"):
            load_pdp(path)


    @pytest.mark.parametrize("kind", ["directory", "missing", "undecodable"])
    def test_load_pdp_names_a_file_it_cannot_read(self, tmp_path, kind):
        path = tmp_path / "p.pdp"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfe 1 0\n")
        with pytest.raises(ParameterError, match="cannot read power delay profile .*p.pdp"):
            load_pdp(path)


class TestSampleChannel:
    def test_single_tap_is_flat_in_frequency(self):
        alpha = np.ones(3, dtype=np.int8)
        real = sample_channel(flat_profile(), alpha, M=2, N=16, delta_f=15e3, seed=0)
        for k in range(3):
            for m in range(2):
                col = real.G[k, :, m]
                np.testing.assert_allclose(col, col[0], rtol=0, atol=1e-14)

    def test_inactive_device_is_zero(self):
        alpha = np.array([1, 0, 1], dtype=np.int8)
        real = sample_channel(flat_profile(), alpha, M=2, N=8, delta_f=15e3, seed=1)
        assert np.all(real.G[1] == 0)

    def test_two_tap_unit_energy(self):
        """Monte-Carlo second moment matches the unit tap-power sum within 2%."""
        n, delta_f = 72, 15e3
        tau2 = 1.0 / (delta_f * n)
        prof = MultipathProfile(powers=np.array([0.5, 0.5]), delays=np.array([0.0, tau2]))
        alpha = np.ones(50_000, dtype=np.int8)
        real = sample_channel(prof, alpha, M=1, N=2, delta_f=delta_f, seed=3)
        assert abs(np.mean(np.abs(real.G) ** 2) - 1.0) < 0.02

    def test_active_energy_window(self):
        prof = load_pdp(example_pdp_path())
        alpha = np.ones(100_000, dtype=np.int8)
        real = sample_channel(prof, alpha, M=1, N=1, delta_f=15e3, seed=4)
        assert 0.98 <= np.mean(np.abs(real.G) ** 2) <= 1.02

    def test_deterministic(self):
        prof = load_pdp(example_pdp_path())
        alpha = sample_activity(50, 0.3, seed=9)
        a = sample_channel(prof, alpha, M=2, N=12, delta_f=15e3, seed=10)
        b = sample_channel(prof, alpha, M=2, N=12, delta_f=15e3, seed=10)
        assert np.array_equal(a.G, b.G)

    def test_bad_dims(self):
        with pytest.raises(ParameterError):
            sample_channel(flat_profile(), np.ones(2, dtype=np.int8), M=0, N=4,
                           delta_f=15e3, seed=0)

    @pytest.mark.parametrize("delta_f", [np.nan, np.inf, -np.inf])
    def test_rejects_a_subcarrier_spacing_that_is_not_finite(self, delta_f):
        """A NaN or infinite spacing would give non-finite responses."""
        with pytest.raises(ParameterError, match="delta_f must be finite"):
            sample_channel(flat_profile(), np.ones(2, dtype=np.int8), M=1, N=4,
                           delta_f=delta_f, seed=0)

    def test_holds_the_active_rows_only(self):
        prof = load_pdp(example_pdp_path())
        alpha = np.array([0, 1, 0, 0, 1, 1], dtype=np.int8)
        real = sample_channel(prof, alpha, M=3, N=12, delta_f=15e3, seed=12)
        assert real.G_active.shape == (3, 12, 3) and real.G_active.flags.c_contiguous
        np.testing.assert_array_equal(real.active, [1, 4, 5])
        np.testing.assert_array_equal(real.G[real.active], real.G_active)

    def test_no_active_device_gives_an_empty_response_array(self):
        real = sample_channel(flat_profile(), np.zeros(5, dtype=np.int8), M=2, N=8,
                              delta_f=15e3, seed=0)
        assert real.G_active.shape == (0, 8, 2)
        assert real.G_active.flags.c_contiguous
        assert real.active.size == 0 and real.G.shape == (5, 8, 2) and not real.G.any()


class TestChannelRealization:
    def test_rejects_a_row_count_that_differs_from_the_active_devices(self):
        activity = np.array([1, 0, 1], dtype=np.int8)
        for rows in (1, 3, 0):
            with pytest.raises(DimensionError):
                ChannelRealization(activity=activity, G_active=np.zeros((rows, 4, 2), complex))
        ChannelRealization(activity=activity, G_active=np.zeros((2, 4, 2), complex))

    def test_rejects_wrong_ranks(self):
        with pytest.raises(DimensionError):
            ChannelRealization(activity=np.ones(2, np.int8), G_active=np.zeros((2, 4), complex))
        with pytest.raises(DimensionError):
            ChannelRealization(activity=np.ones((2, 1), np.int8),
                               G_active=np.zeros((2, 4, 1), complex))

    def test_is_frozen(self):
        real = ChannelRealization(activity=np.ones(1, np.int8), G_active=np.ones((1, 2, 1)))
        with pytest.raises(AttributeError):
            real.G_active = np.zeros((1, 2, 1))


class TestBlockwiseBasis:
    def test_small_case_matches_definition(self):
        basis = BlockwiseBasis(4, 2)
        np.testing.assert_array_equal(e1(basis), [[1, 0], [1, 0], [0, 1], [0, 1]])
        np.testing.assert_array_equal(basis.offsets, [0.0, 1.0])
        np.testing.assert_array_equal(e2(basis), [[0, 0], [1, 0], [0, 0], [0, 1]])

    def test_standard_case_offsets(self):
        basis = BlockwiseBasis(72, 4)
        assert e1(basis).shape == (72, 4)
        np.testing.assert_array_equal(basis.offsets, np.arange(-8, 10))

    def test_disjoint_column_supports(self):
        basis = BlockwiseBasis(24, 4)
        overlap = (e1(basis) != 0).astype(int)
        assert np.all(overlap.sum(axis=1) == 1)

    def test_rejects_one_subcarrier_blocks(self):
        with pytest.raises(ConfigurationError):
            BlockwiseBasis(8, 8)

    def test_rejects_nondividing_q(self):
        with pytest.raises(ConfigurationError):
            BlockwiseBasis(10, 4)

    def test_expand_rejects_mismatched_means_and_slopes(self):
        basis = BlockwiseBasis(8, 2)
        with pytest.raises(DimensionError):
            basis.expand(np.zeros((4, 2)), np.zeros((4, 1)))
        with pytest.raises(DimensionError):
            basis.expand(np.zeros((3, 2)), np.zeros((3, 2)))  # 3 rows are not Q * K


class TestProjectBlockwise:
    def test_constant_block_gives_pure_mean(self):
        basis = BlockwiseBasis(8, 2)
        G = np.zeros((1, 8, 1), dtype=complex)
        G[0, :4, 0] = 2.0 - 1.0j
        G[0, 4:, 0] = 0.5j
        real_ = _realization(G)
        truth = project_blockwise(real_, basis)
        np.testing.assert_allclose(truth.H[:, 0], [2.0 - 1.0j, 0.5j], atol=1e-14)
        np.testing.assert_allclose(truth.C, 0, atol=1e-14)
        np.testing.assert_allclose(truth.Delta, 0, atol=1e-14)

    def test_affine_block_is_fit_exactly(self):
        basis = BlockwiseBasis(12, 3)
        d = basis.offsets
        G = np.zeros((1, 12, 1), dtype=complex)
        for q in range(3):
            G[0, q * 4 : (q + 1) * 4, 0] = (q + 1.0) + (0.3j + 0.1) * q * d
        truth = project_blockwise(_realization(G), basis)
        np.testing.assert_allclose(truth.Delta, 0, atol=1e-12)

    def test_reconstruction_identity(self):
        prof = load_pdp(example_pdp_path())
        alpha = sample_activity(20, 0.5, seed=5)
        real_ = sample_channel(prof, alpha, M=3, N=72, delta_f=15e3, seed=6)
        for q in (2, 4, 8):
            basis = BlockwiseBasis(72, q)
            truth = project_blockwise(real_, basis)
            recon = basis.expand(truth.H, truth.C)[real_.active] + truth.Delta
            assert np.max(np.abs(real_.G_active - recon)) < 1e-12

    def test_inactive_rows_are_zero(self):
        prof = load_pdp(example_pdp_path())
        alpha = np.array([1, 0], dtype=np.int8)
        real_ = sample_channel(prof, alpha, M=2, N=8, delta_f=15e3, seed=7)
        truth = project_blockwise(real_, BlockwiseBasis(8, 2))
        assert np.all(truth.H[2:] == 0) and np.all(truth.C[2:] == 0)

    def test_rejects_a_basis_of_another_size(self):
        with pytest.raises(DimensionError, match="N=8"):
            project_blockwise(_realization(np.zeros((1, 8, 1), dtype=complex)),
                              BlockwiseBasis(12, 2))

    def test_least_squares_optimality_probe(self):
        """Any +/- eps perturbation of a fitted (mean, slope) grows the residual."""
        prof = load_pdp(example_pdp_path())
        real_ = sample_channel(prof, np.ones(1, dtype=np.int8), M=1, N=8,
                               delta_f=15e3, seed=8)
        basis = BlockwiseBasis(8, 2)
        truth = project_blockwise(real_, basis)

        def resid_norm(H, C):
            return np.sum(np.abs(real_.G - basis.expand(H, C)) ** 2)

        base = resid_norm(truth.H, truth.C)
        eps = 1e-3
        for row in range(2):
            for delta in (eps, -eps, 1j * eps, -1j * eps):
                for target in ("H", "C"):
                    H = truth.H.copy()
                    C = truth.C.copy()
                    (H if target == "H" else C)[row, 0] += delta
                    assert resid_norm(H, C) > base

    def test_mismatch_ratio_matches_analytic_and_shrinks_with_q(self):
        """Monte-Carlo residual ratio tracks the closed-form floor, which
        decreases as the sub-block count doubles."""
        prof = load_pdp(example_pdp_path())
        delta_f = 15e3
        alpha = np.ones(400, dtype=np.int8)
        real_ = sample_channel(prof, alpha, M=2, N=72, delta_f=delta_f, seed=11)
        floors = []
        for q in (2, 4, 8):
            floor = expected_mismatch_ratio(prof, 72, q, delta_f)
            truth = project_blockwise(real_, BlockwiseBasis(72, q))
            ratio = np.sum(np.abs(truth.Delta) ** 2) / np.sum(np.abs(real_.G) ** 2)
            assert 0.7 * floor < ratio < 1.3 * floor
            floors.append(floor)
        assert floors[0] > floors[1] > floors[2]


class TestSampleBlockwiseExact:
    def test_degenerate_prior(self):
        basis = BlockwiseBasis(8, 2)
        truth, real_ = sample_blockwise_exact(2000, 1, basis, 1.0, 1.0, 0.0, seed=0)
        assert np.all(truth.C == 0)
        assert abs(np.mean(np.abs(truth.H) ** 2) - 1.0) < 0.05
        assert real_.activity.sum() == 2000

    def test_variance_moment_check(self):
        """Active-entry sample variance within 2% of the target at 1e5 draws."""
        basis = BlockwiseBasis(4, 2)
        truth, real_ = sample_blockwise_exact(50_000, 1, basis, 1.0, 2.5, 0.3, seed=1)
        assert abs(np.mean(np.abs(truth.H) ** 2) / 2.5 - 1.0) < 0.02
        assert abs(np.mean(np.abs(truth.C) ** 2) / 0.3 - 1.0) < 0.02

    def test_reconstruction_exact(self):
        basis = BlockwiseBasis(12, 3)
        truth, real_ = sample_blockwise_exact(50, 2, basis, 0.3, 1.0, 0.1, seed=2)
        assert np.all(truth.Delta == 0)
        assert truth.Delta.shape == real_.G_active.shape == (real_.activity.sum(), 12, 2)
        recon = basis.expand(truth.H, truth.C)
        assert np.max(np.abs(real_.G - recon)) == 0.0
        inactive = np.flatnonzero(real_.activity == 0)
        assert np.all(real_.G[inactive] == 0)

    def test_rejects_bad_variance(self):
        basis = BlockwiseBasis(4, 2)
        with pytest.raises(ParameterError):
            sample_blockwise_exact(4, 1, basis, 0.5, -1.0, 0.1, seed=0)

    @pytest.mark.parametrize("theta_H, theta_C", [
        (np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
    ])
    def test_rejects_a_variance_that_is_not_finite(self, theta_H, theta_C):
        basis = BlockwiseBasis(4, 2)
        with pytest.raises(ParameterError, match="positive and finite"):
            sample_blockwise_exact(4, 1, basis, 0.5, theta_H, theta_C, seed=0)

    def test_rejects_a_rate_outside_the_unit_interval(self):
        basis = BlockwiseBasis(4, 2)
        for lam in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError, match="activity rate"):
                sample_blockwise_exact(4, 1, basis, lam, 1.0, 0.1, seed=0)


def _realization(G):
    K = G.shape[0]
    return ChannelRealization(activity=np.ones(K, dtype=np.int8), G_active=G)
