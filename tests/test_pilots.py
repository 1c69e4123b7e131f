"""Pilot operator construction and fast-path equivalence."""

import numpy as np
import pytest

from oracles import dense_A, dense_B, mix_subcarriers_fft, permutation
from turbomp import ConfigurationError, DimensionError, build_codebook


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBuild:
    def test_paper_scale_shapes(self):
        cb = build_codebook(K=1000, N=72, T=8, Q=4, seed=0)
        assert (cb.rows, cb.cols) == (576, 4000)
        assert cb.selections.shape == (4, 144)
        assert cb.D_diag.shape == (576,)

    def test_minimal_configuration(self):
        """T=1 with one subcarrier per block selects a single DFT row per block."""
        cb = build_codebook(K=16, N=4, T=1, Q=4, seed=1)
        assert cb.rows_per_block == 1
        assert cb.selections.shape == (4, 1)

    def test_strict_requires_enough_rows(self):
        with pytest.raises(ConfigurationError):
            build_codebook(K=16, N=8, T=4, Q=2, seed=0)  # T*N = 32 > K
        cb = build_codebook(K=16, N=8, T=4, Q=2, seed=0, strict=False)
        assert cb.selections.shape == (2, 16)

    def test_strict_selections_globally_disjoint(self):
        cb = build_codebook(K=80, N=8, T=4, Q=2, seed=3)
        assert np.unique(cb.selections).size == cb.rows

    def test_relaxed_selections_distinct_per_block(self):
        cb = build_codebook(K=16, N=8, T=4, Q=2, seed=3, strict=False)
        for q in range(2):
            assert np.unique(cb.selections[q]).size == cb.rows_per_block

    def test_divisibility_checks(self):
        with pytest.raises(ConfigurationError):
            build_codebook(K=100, N=10, T=2, Q=4, seed=0)

    def test_deterministic_given_seed(self):
        a = build_codebook(K=64, N=8, T=2, Q=2, seed=9)
        b = build_codebook(K=64, N=8, T=2, Q=2, seed=9)
        assert np.array_equal(a.selections, b.selections)


class TestOperatorAlgebra:
    def test_partial_orthogonality(self):
        cb = build_codebook(K=64, N=8, T=4, Q=2, P=1.0, seed=0)
        A = dense_A(cb)
        kp_eye = cb.K * cb.power * np.eye(cb.rows)
        rel = np.linalg.norm(A @ A.conj().T - kp_eye) / np.linalg.norm(kp_eye)
        assert rel < 1e-10

    def test_partial_orthogonality_nonunit_power(self):
        cb = build_codebook(K=64, N=8, T=4, Q=2, P=2.5, seed=1)
        A = dense_A(cb)
        kp_eye = cb.K * 2.5 * np.eye(cb.rows)
        rel = np.linalg.norm(A @ A.conj().T - kp_eye) / np.linalg.norm(kp_eye)
        assert rel < 1e-10

    def test_every_entry_has_pilot_power(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, P=1.7, seed=2)
        A = dense_A(cb)
        nz = np.abs(A[np.abs(A) > 0]) ** 2
        np.testing.assert_allclose(nz, 1.7, rtol=1e-12)

    def test_block_structure(self):
        """Device k's sub-block-q column is the selected DFT rows in block q only."""
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=4)
        A = dense_A(cb)
        rpb = cb.rows_per_block
        for k in (0, 7, 31):
            for q in range(2):
                col = A[:, k * cb.Q + q]
                expected = cb.scale * np.exp(-2j * np.pi * cb.selections[q] * k / cb.K)
                block = col[q * rpb : (q + 1) * rpb]
                np.testing.assert_allclose(block, expected, atol=1e-13)
                other = np.delete(col, np.s_[q * rpb : (q + 1) * rpb])
                assert np.all(other == 0)

    def test_fast_equals_dense(self):
        cb = build_codebook(K=16, N=8, T=4, Q=2, seed=5, strict=False)
        A, B = dense_A(cb), dense_B(cb)
        rng = np.random.default_rng(0)
        x = rand_complex(rng, cb.cols)
        y = rand_complex(rng, cb.rows)
        for fast, ref in [
            (cb.apply_A(x), A @ x),
            (cb.apply_A_adjoint(y), A.conj().T @ y),
            (cb.apply_B(x), B @ x),
            (cb.apply_B_adjoint(y), B.conj().T @ y),
        ]:
            assert np.linalg.norm(fast - ref) / np.linalg.norm(ref) < 1e-12

    def test_fast_equals_dense_matrix_input(self):
        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=6)
        A = dense_A(cb)
        rng = np.random.default_rng(1)
        X = rand_complex(rng, cb.cols, 3)
        assert np.linalg.norm(cb.apply_A(X) - A @ X) / np.linalg.norm(A @ X) < 1e-12

    def test_zero_maps_to_zero(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=7)
        assert np.all(cb.apply_A(np.zeros(cb.cols)) == 0)

    def test_b_is_diagonal_times_a(self):
        cb = build_codebook(K=32, N=8, T=2, Q=2, seed=8)
        rng = np.random.default_rng(2)
        x = rand_complex(rng, cb.cols)
        np.testing.assert_allclose(cb.apply_B(x), cb.D_diag * cb.apply_A(x), rtol=1e-14)

    def test_adjoint_inner_product_identity(self):
        """<y, A x> = <A^H y, x> on vectors and, at K=16000, on (n, M) matrices."""
        rng = np.random.default_rng(3)
        for (K, N, T, Q), shape in [((64, 8, 4, 2), ()), ((16000, 72, 8, 4), (3,))]:
            cb = build_codebook(K=K, N=N, T=T, Q=Q, seed=9)
            for _ in range(5):
                x = rand_complex(rng, cb.cols, *shape)
                y = rand_complex(rng, cb.rows, *shape)
                lhs = np.vdot(y, cb.apply_A(x))
                rhs = np.vdot(cb.apply_A_adjoint(y), x)
                assert abs(lhs - rhs) / abs(lhs) < 1e-12
                lhs_b = np.vdot(y, cb.apply_B(x))
                rhs_b = np.vdot(cb.apply_B_adjoint(y), x)
                assert abs(lhs_b - rhs_b) / abs(lhs_b) < 1e-12

    def test_partial_orthogonality_on_probes_at_scale(self):
        """A A^H y = K P y on random probes at K=16000, without a dense matrix."""
        cb = build_codebook(K=16000, N=72, T=8, Q=4, P=1.7, seed=13)
        rng = np.random.default_rng(6)
        for shape in [(cb.rows,), (cb.rows, 4)]:
            y = rand_complex(rng, *shape)
            back = cb.apply_A(cb.apply_A_adjoint(y))
            kp_y = cb.K * cb.power * y
            assert np.linalg.norm(back - kp_y) / np.linalg.norm(kp_y) < 1e-12

    def test_length_mismatch_raises(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=10)
        with pytest.raises(DimensionError):
            cb.apply_A(np.zeros(cb.cols + 1))
        with pytest.raises(DimensionError):
            cb.apply_A_adjoint(np.zeros(cb.rows - 1))

    def test_dense_size_guard(self):
        cb = build_codebook(K=5000, N=72, T=8, Q=4, seed=11)
        with pytest.raises(ConfigurationError):
            dense_A(cb)


class TestPermutationAndMixing:
    def test_permutation_reorders_device_major_to_block_major(self):
        cb = build_codebook(K=6, N=4, T=1, Q=2, seed=0, strict=False)
        x = np.arange(cb.cols, dtype=float)
        via_perm = x[permutation(cb)].reshape(cb.Q, cb.K)
        via_reshape = x.reshape(cb.K, cb.Q).T
        assert np.array_equal(via_perm, via_reshape)

    def test_mix_matches_operators_on_expanded_coefficients(self):
        from turbomp import blockwise_basis

        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=1)
        basis = blockwise_basis(8, 2)
        rng = np.random.default_rng(4)
        H = rand_complex(rng, cb.cols, 3)
        C = rand_complex(rng, cb.cols, 3)
        X = basis.expand(H, C)  # (K, N, M)
        direct = cb.apply_A(H) + cb.apply_B(C)
        mixed = cb.mix_subcarriers(X)
        assert np.linalg.norm(mixed - direct) / np.linalg.norm(direct) < 1e-12

    def test_mix_matches_fft_over_all_devices(self):
        """Summing over the nonzero device rows equals the K-point FFT over all rows,
        for sparse, all-active and all-zero inputs, with and without an antenna axis."""
        rng = np.random.default_rng(6)
        for K, N, T, Q, strict in [(64, 8, 2, 2, True), (1000, 72, 8, 4, True),
                                   (16, 8, 4, 2, False)]:
            cb = build_codebook(K=K, N=N, T=T, Q=Q, seed=K, strict=strict)
            for active in (rng.random(K) < 0.1, np.ones(K, bool), np.zeros(K, bool)):
                X = np.zeros((K, N, 3), dtype=complex)
                X[active] = rand_complex(rng, int(active.sum()), N, 3)
                for x in (X, X[:, :, 0]):
                    want = mix_subcarriers_fft(cb, x)
                    got = cb.mix_subcarriers(x)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mix_shape_checks(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=2)
        with pytest.raises(DimensionError):
            cb.mix_subcarriers(np.zeros((31, 4)))
