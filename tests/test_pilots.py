"""Pilot operator construction and fast-path equivalence."""

import gc
import weakref

import numpy as np
import pytest

from oracles import dense_A, dense_B, mix_subcarriers_fft, permutation, shared_row_codebook
from turbomp import ConfigurationError, DimensionError, PilotCodebook, build_codebook, parallel


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
        cb = shared_row_codebook(K=16, N=8, T=4, Q=2, seed=0)
        assert cb.selections.shape == (2, 16)

    def test_strict_selections_globally_disjoint(self):
        cb = build_codebook(K=80, N=8, T=4, Q=2, seed=3)
        assert np.unique(cb.selections).size == cb.rows

    def test_relaxed_selections_distinct_per_block(self):
        cb = shared_row_codebook(K=16, N=8, T=4, Q=2, seed=3)
        for q in range(2):
            assert np.unique(cb.selections[q]).size == cb.rows_per_block

    def test_divisibility_checks(self):
        with pytest.raises(ConfigurationError):
            build_codebook(K=100, N=10, T=2, Q=4, seed=0)

    @pytest.mark.parametrize("edit, match", [
        (lambda sel: dict(K=0), ">= 1"),
        (lambda sel: dict(power=0.0), "power"),
        (lambda sel: dict(power=-1.0), "power"),
        (lambda sel: dict(power=np.nan), "power must be positive and finite"),
        (lambda sel: dict(power=np.inf), "power must be positive and finite"),
        (lambda sel: dict(power=-np.inf), "power must be positive and finite"),
        (lambda sel: dict(selections=sel[:, :-1]), "selections must be"),
        (lambda sel: dict(selections=sel + 0.7), "selections must hold integers"),
        (lambda sel: dict(selections=np.where(sel == sel[0, 0], np.nan, sel)),
         "selections must hold integers"),
        (lambda sel: dict(selections=np.where(sel == sel[0, 0], 16, sel)), r"\[0, K\)"),
        (lambda sel: dict(selections=np.where(sel == sel[0, 0], -1, sel)), r"\[0, K\)"),
        (lambda sel: dict(selections=np.where(sel == sel[0, 1], sel[0, 0], sel)), "repeats"),
    ])
    def test_direct_construction_is_validated(self, edit, match):
        """Each check of a codebook built from its fields, one edit away from valid pilots."""
        sel = build_codebook(K=16, N=8, T=2, Q=2, seed=0).selections
        doc = dict(K=16, N=8, T=2, Q=2, power=1.0, selections=sel)
        PilotCodebook(**doc)
        with pytest.raises(ConfigurationError, match=match):
            PilotCodebook(**{**doc, **edit(sel)})

    def test_a_row_shared_across_blocks_keeps_the_operators_exact(self):
        """Each block reaches its own columns, so a DFT row that two blocks share still gives
        A A^H = K P I, and the fast operator equals the dense one."""
        sel = build_codebook(K=16, N=8, T=2, Q=2, seed=0).selections
        shared = np.where(sel == sel[1, 0], sel[0, 0], sel)
        assert np.intersect1d(shared[0], shared[1]).size == 1
        cb = PilotCodebook(K=16, N=8, T=2, Q=2, power=1.3, selections=shared)
        A = dense_A(cb)
        kp_eye = cb.K * cb.power * np.eye(cb.rows)
        assert np.linalg.norm(A @ A.conj().T - kp_eye) / np.linalg.norm(kp_eye) < 1e-10
        x = rand_complex(np.random.default_rng(0), cb.cols)
        np.testing.assert_allclose(cb.apply_A(x), A @ x, rtol=1e-10, atol=1e-10)

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
        cb = shared_row_codebook(K=16, N=8, T=4, Q=2, seed=5)
        A, B = dense_A(cb), dense_B(cb)
        rng = np.random.default_rng(0)
        x = rand_complex(rng, cb.cols)
        y = rand_complex(rng, cb.rows)
        for fast, ref in [
            (cb.apply_A(x), A @ x),
            (cb.apply_A_adjoint(y), A.conj().T @ y),
            (cb.D_diag * cb.apply_A(x), B @ x),
            (cb.apply_A_adjoint(cb.D_diag * y), B.conj().T @ y),
        ]:
            assert np.linalg.norm(fast - ref) / np.linalg.norm(ref) < 1e-12

    def test_fast_equals_dense_matrix_input(self):
        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=6)
        A = dense_A(cb)
        rng = np.random.default_rng(1)
        X = rand_complex(rng, cb.cols, 3)
        assert np.linalg.norm(cb.apply_A(X) - A @ X) / np.linalg.norm(A @ X) < 1e-12

    def test_adjoint_matrix_input_equals_dense(self):
        """A matrix y gives (K, Q, M) blocks equal to the dense adjoints' (Q*K, M) products,
        B^H y as A^H (D y) with the engine's row weight D_diag[:, None]."""
        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=6)
        A, B = dense_A(cb), dense_B(cb)
        Y = rand_complex(np.random.default_rng(4), cb.rows, 3)
        for got, dense in [(cb.apply_A_adjoint(Y), A),
                           (cb.apply_A_adjoint(cb.D_diag[:, None] * Y), B)]:
            ref = dense.conj().T @ Y
            assert got.shape == (cb.K, cb.Q, 3)
            assert np.linalg.norm(got.reshape(ref.shape) - ref) / np.linalg.norm(ref) < 1e-12

    @pytest.mark.parametrize("K", [1000, 16000])
    def test_block_layouts_give_identical_products(self, K):
        """apply_A is bitwise the same on (Q*K, M) matrices, C-ordered (K, Q, M) blocks and
        device-contiguous blocks (the strides of a C-ordered (Q, M, K) array)."""
        cb = build_codebook(K=K, N=72, T=8, Q=4, seed=12)
        X = rand_complex(np.random.default_rng(5), cb.cols, 8)
        blocks = X.reshape(cb.K, cb.Q, 8)
        device_contiguous = np.ascontiguousarray(blocks.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert device_contiguous.strides[0] == device_contiguous.itemsize
        want = cb.apply_A(X)
        for x in (blocks, device_contiguous):
            assert np.array_equal(cb.apply_A(x), want)

    def test_zero_maps_to_zero(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=7)
        assert np.all(cb.apply_A(np.zeros(cb.cols)) == 0)

    def test_b_is_diagonal_times_a(self):
        """The row weight times A's product is the dense B = D A, on vectors and matrices."""
        cb = build_codebook(K=32, N=8, T=2, Q=2, seed=8)
        rng = np.random.default_rng(2)
        x, X = rand_complex(rng, cb.cols), rand_complex(rng, cb.cols, 3)
        B = dense_B(cb)
        for fast, ref in [(cb.D_diag * cb.apply_A(x), B @ x),
                          (cb.D_diag[:, None] * cb.apply_A(X), B @ X)]:
            assert np.linalg.norm(fast - ref) / np.linalg.norm(ref) < 1e-12

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
                d = cb.D_diag.reshape((-1,) + (1,) * len(shape))  # B = D A
                lhs_b = np.vdot(y, d * cb.apply_A(x))
                rhs_b = np.vdot(cb.apply_A_adjoint(d * y), x)
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
        for shape in [(cb.K + 1, cb.Q, 2), (cb.K, cb.Q + 1, 2), (cb.Q, cb.K, 2)]:
            with pytest.raises(DimensionError):
                cb.apply_A(np.zeros(shape))

    def test_dense_size_guard(self):
        cb = build_codebook(K=5000, N=72, T=8, Q=4, seed=11)
        with pytest.raises(ConfigurationError):
            dense_A(cb)


def along_axis_A(cb, x):
    """A @ x through `take_along_axis` and a transposing copy, the gather apply_A replaced."""
    rows = x.reshape(cb.K, cb.Q, -1).transpose(1, 2, 0)
    w = np.empty(rows.shape, dtype=complex)
    for q in range(cb.Q):
        np.fft.fft(rows[q], out=w[q])
    y = np.take_along_axis(w, cb.selections[:, None, :], axis=-1)
    return cb.scale * y.transpose(0, 2, 1).reshape(cb.rows, -1)


def along_axis_A_adjoint(cb, y):
    """A^H @ y as (K, Q, M) blocks through `put_along_axis`, the scatter the adjoint replaced:
    K sqrt(P) y in the selected rows of the zero message's spectrum, then the inverse DFT."""
    blocks = y.reshape(cb.Q, cb.rows_per_block, -1).transpose(0, 2, 1)
    w = np.zeros((cb.Q, blocks.shape[1], cb.K), dtype=complex)
    for q in range(cb.Q):
        np.put_along_axis(w[q], cb.selections[q, None], cb.K * cb.scale * blocks[q], axis=-1)
        np.fft.ifft(w[q], out=w[q])
    return w.transpose(2, 0, 1)


class TestDirectIndex:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("K, N, T, Q, build", [(16, 8, 4, 2, shared_row_codebook),
                                                   (64, 8, 2, 2, build_codebook),
                                                   (1000, 72, 8, 4, build_codebook)])
    def test_gather_and_scatter_are_bitwise_the_along_axis_forms(self, monkeypatch, split, K, N,
                                                                  T, Q, build):
        """Direct-index gathers and scatters give bitwise the `take_along_axis` and
        `put_along_axis` products, whether or not the sub-blocks run as two halves, and match
        the dense operators."""
        if split:
            monkeypatch.setattr(parallel, "MIN_SIZE", 0)
        cb = build(K=K, N=N, T=T, Q=Q, seed=K)
        rng = np.random.default_rng(K)
        X, Y = rand_complex(rng, cb.cols, 3), rand_complex(rng, cb.rows, 3)
        blocks = X.reshape(cb.K, cb.Q, 3)
        assert np.array_equal(cb.apply_A(X), along_axis_A(cb, X))
        assert np.array_equal(cb.apply_A(blocks), along_axis_A(cb, X))
        assert np.array_equal(cb.apply_A(X[:, 0]), along_axis_A(cb, X[:, :1])[:, 0])
        assert np.array_equal(cb.apply_A_adjoint(Y), along_axis_A_adjoint(cb, Y))
        assert np.array_equal(cb.apply_A_adjoint(Y[:, 0]),
                              along_axis_A_adjoint(cb, Y[:, :1]).reshape(cb.cols))
        if K <= 64:
            A = dense_A(cb)
            np.testing.assert_allclose(cb.apply_A(X), A @ X, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cb.apply_A_adjoint(Y).reshape(cb.cols, 3),
                                       A.conj().T @ Y, rtol=0, atol=1e-12)


    def test_row_index_is_built_once_per_antenna_count_and_freed_with_its_codebook(self):
        """Both operators read one flat index per antenna count, built at its first use and
        held by the codebook alone, so it is freed with the codebook."""
        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=3)
        rng = np.random.default_rng(3)
        cb.apply_A(rand_complex(rng, cb.cols, 3))
        index = cb._rows(3)
        cb.apply_A_adjoint(rand_complex(rng, cb.rows, 3))
        cb.apply_A(rand_complex(rng, cb.cols))
        assert cb._rows(3) is index and sorted(cb._row_index) == [1, 3]
        codebook, index = weakref.ref(cb), weakref.ref(index)
        del cb
        gc.collect()
        assert codebook() is None and index() is None


def device_contiguous(x, cb):
    """A copy of the (Q*K, M) matrix x as the device-contiguous (K, Q, M) blocks of a C-ordered
    (Q, M, K) array, the operators' block layout."""
    blocks = np.empty((cb.Q, x.shape[1], cb.K), dtype=complex).transpose(2, 0, 1)
    blocks[...] = x.reshape(blocks.shape)
    return blocks


class TestAdjointFromSpectrum:
    """apply_A(x, x) leaves x's spectrum in x, and apply_A_adjoint(y, out, spectrum) returns
    x + A^H y from it, as the engine carries its messages."""

    def test_in_place_forward_is_the_forward_and_leaves_the_spectrum(self):
        cb = build_codebook(K=64, N=8, T=2, Q=2, P=1.7, seed=21)
        X = rand_complex(np.random.default_rng(21), cb.cols, 3)
        blocks = device_contiguous(X, cb)
        assert np.array_equal(cb.apply_A(blocks, blocks), cb.apply_A(X))
        assert np.array_equal(blocks, np.fft.fft(X.reshape(cb.K, cb.Q, 3), axis=0))

    @pytest.mark.parametrize("K, N, T, Q, build", [(64, 8, 4, 2, build_codebook),
                                                   (16, 8, 4, 2, shared_row_codebook)])
    def test_adjoint_from_a_spectrum_equals_dense(self, K, N, T, Q, build):
        """x + A^H y and x + B^H y (as A^H of D y) equal the dense products to criterion 01's
        tolerance, for the zero message (spectrum None) and for the spectrum apply_A left."""
        cb = build(K=K, N=N, T=T, Q=Q, P=1.3, seed=K)
        A, rng = dense_A(cb), np.random.default_rng(K)
        X, Y = rand_complex(rng, cb.cols, 3), rand_complex(rng, cb.rows, 3)
        blocks = device_contiguous(X, cb)
        cb.apply_A(blocks, blocks)
        for y in (Y, cb.D_diag[:, None] * Y):
            for x, spectrum in ((np.zeros_like(X), None), (X, blocks)):
                want = x + A.conj().T @ y
                got = cb.apply_A_adjoint(y, spectrum=spectrum).reshape(want.shape)
                assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12
        want = X[:, 0] + A.conj().T @ Y[:, 0]
        got = cb.apply_A_adjoint(Y[:, 0], spectrum=blocks[..., :1])
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    @pytest.mark.parametrize("K", [1000, 16000])
    def test_spectrum_is_left_byte_equal_and_the_split_changes_nothing(self, monkeypatch, K):
        """The adjoint writes into out and leaves spectrum byte-equal, and its output is
        bitwise the same whether or not the sub-blocks run as two halves."""
        cb = build_codebook(K=K, N=72, T=8, Q=4, seed=K)
        rng = np.random.default_rng(K)
        spectrum = device_contiguous(rand_complex(rng, cb.cols, 8), cb)
        cb.apply_A(spectrum, spectrum)
        saved, Y = spectrum.tobytes(), rand_complex(rng, cb.rows, 8)
        outputs = []
        for size in (0, 10**12):
            monkeypatch.setattr(parallel, "MIN_SIZE", size)
            out = device_contiguous(np.zeros((cb.cols, 8)), cb)
            assert cb.apply_A_adjoint(Y, out, spectrum).base is out.base
            assert spectrum.tobytes() == saved
            outputs.append(out.tobytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["scratch", "out", "spectrum"])
    @pytest.mark.parametrize("shape", [(64, 2, 2), (64, 2), (32, 2, 3), (64, 3, 3)])
    def test_a_block_of_another_shape_raises_naming_it(self, name, shape):
        """A caller's block whose shape is not the input's (K, Q, M) raises DimensionError
        naming the argument, in place of numpy's ValueError."""
        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=22)
        rng = np.random.default_rng(22)
        X, Y = rand_complex(rng, cb.cols, 3), rand_complex(rng, cb.rows, 3)
        block = device_contiguous(rand_complex(rng, cb.cols, 3), cb)
        bad = np.zeros(shape, dtype=complex)
        with pytest.raises(DimensionError, match=name):
            if name == "scratch":
                cb.apply_A(X, bad)
            else:
                cb.apply_A_adjoint(Y, **{"out": block, "spectrum": block, name: bad})


class TestPermutationAndMixing:
    def test_permutation_reorders_device_major_to_block_major(self):
        cb = shared_row_codebook(K=6, N=4, T=1, Q=2, seed=0)
        x = np.arange(cb.cols, dtype=float)
        via_perm = x[permutation(cb)].reshape(cb.Q, cb.K)
        via_reshape = x.reshape(cb.K, cb.Q).T
        assert np.array_equal(via_perm, via_reshape)

    def test_mix_matches_operators_on_expanded_coefficients(self):
        from turbomp import BlockwiseBasis

        cb = build_codebook(K=64, N=8, T=2, Q=2, seed=1)
        basis = BlockwiseBasis(8, 2)
        rng = np.random.default_rng(4)
        H = rand_complex(rng, cb.cols, 3)
        C = rand_complex(rng, cb.cols, 3)
        X = basis.expand(H, C)  # (K, N, M)
        direct = cb.apply_A(H) + cb.D_diag[:, None] * cb.apply_A(C)
        mixed = cb.mix_subcarriers(X, np.arange(cb.K))
        assert np.linalg.norm(mixed - direct) / np.linalg.norm(direct) < 1e-12

    def test_mix_matches_fft_over_all_devices(self):
        """Summing over the active device rows equals the K-point FFT over all rows,
        for sparse, all-active and all-zero inputs, with and without an antenna axis."""
        rng = np.random.default_rng(6)
        for K, N, T, Q, build in [(64, 8, 2, 2, build_codebook), (1000, 72, 8, 4, build_codebook),
                                  (16, 8, 4, 2, shared_row_codebook)]:
            cb = build(K=K, N=N, T=T, Q=Q, seed=K)
            for active in (rng.random(K) < 0.1, np.ones(K, bool), np.zeros(K, bool)):
                X = np.zeros((K, N, 3), dtype=complex)
                X[active] = rand_complex(rng, int(active.sum()), N, 3)
                for x in (X, X[:, :, 0]):
                    want = mix_subcarriers_fft(cb, x)
                    got = cb.mix_subcarriers(x[active], np.flatnonzero(active))
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mix_shape_checks(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=2)
        with pytest.raises(DimensionError):
            cb.mix_subcarriers(np.zeros((31, 4)), np.arange(32))

    def test_mix_rejects_rows_that_do_not_match_the_indices(self):
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=2)
        for rows, active in ((3, [0, 5]), (2, [0, 5, 9]), (0, [1])):
            with pytest.raises(DimensionError):
                cb.mix_subcarriers(np.ones((rows, 4, 2)), np.array(active))
        with pytest.raises(DimensionError):
            cb.mix_subcarriers(np.ones((2, 3, 2)), np.array([0, 5]))  # N mismatch

    def test_mix_rejects_indices_outside_the_devices(self):
        """An index k >= K would alias device k - K through roots[(s k) mod K]."""
        cb = build_codebook(K=32, N=4, T=2, Q=2, seed=2)
        X = np.ones((2, 4, 2), dtype=complex)
        for active in ([0, 32], [-1, 3], [3, 40]):
            with pytest.raises(DimensionError):
                cb.mix_subcarriers(X, np.array(active))
        with pytest.raises(DimensionError):
            cb.mix_subcarriers(X, np.array([0.0, 3.0]))
        dense = np.zeros((32, 4, 2), dtype=complex)
        dense[[0, 31]] = X
        want = mix_subcarriers_fft(cb, dense)
        got = cb.mix_subcarriers(X, np.array([0, 31]))  # the edge indices 0 and K - 1
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
