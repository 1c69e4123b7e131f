"""Structured pilot operators with a fast DFT application path.

The wide pilot matrix A maps stacked per-device sub-block coefficients (length Q*K,
device-major) to T*N observation rows.  It factors as a permutation into Q device-indexed
blocks, a scaled K-point DFT per block, and a row gather (one flat index, built once), which
keeps every matrix-vector product at O(Q*K*log K).  Each implied pilot symbol has squared
magnitude P, and the row structure gives the partial orthogonality A @ A^H = K*P*I that the
linear estimator relies on.  B shares the factorization through the real diagonal D: B = D @ A,
which is applied as the row weight D_diag times A's product (and A^H of D_diag times y).

Coefficients enter as (K, Q, M) blocks and observations as (T*N, M) matrices, the forms the
engine runs.  Blocks are "device-contiguous": the strides of a C-ordered (Q, M, K) array.
Every DFT runs along the device axis, which such blocks hold contiguously, so pocketfft reads
it without a copy: bitwise the values of a C-ordered input in about half the time at K=16000.
`apply_A(x)` runs its forward DFTs in place, which leaves x's spectrum F x in x;
`apply_A_adjoint(y, out, spectrum)` writes x + A^H y into the caller's block out from that
spectrum, as one inverse DFT of F x + K sqrt(P) S y with S the row scatter (A^H = sqrt(P) F^H S,
and F^H = K F^-1), and leaves spectrum as it found it; the zero message's spectrum is a block
of zeros.  At large K both operators split their Q sub-blocks into two halves on two threads
(`parallel.halves`): the forward DFTs, and the adjoint's row updates and inverse DFTs.  Each
sub-block is transformed alike in either half, so outputs are bitwise independent of the split;
pool workers never split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import subblock_offsets
from .errors import ConfigurationError, DimensionError
from .parallel import halves


@dataclass(frozen=True, eq=False)
class PilotCodebook:
    """Immutable pilot operator pair (A, B) plus construction metadata.

    selections holds Q rows of T*N/Q DFT-row indices, distinct within each block.
    `build_codebook` draws T*N distinct rows, but blocks may share rows, since each block
    reaches its own columns and A @ A^H = K*P*I holds either way.  D_diag is the diagonal of D,
    the per-row sub-block offset, D2_diag its square and D2_mean that square's mean; scale is
    sqrt(P); roots[i] is exp(-2j pi i / K).  All, and a pilot-row index per M, are built once.
    Compared by identity (eq=False), as arrays have no truth value.
    """

    K: int
    N: int
    T: int
    Q: int
    power: float
    selections: np.ndarray
    D_diag: np.ndarray = field(init=False, repr=False)
    D2_diag: np.ndarray = field(init=False, repr=False)
    D2_mean: float = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)
    roots: np.ndarray = field(init=False, repr=False)
    _row_index: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        K, N, T, Q = self.K, self.N, self.T, self.Q
        if min(K, N, T, Q) < 1:
            raise ConfigurationError("K, N, T, Q must all be >= 1")
        if N % Q != 0:
            raise ConfigurationError(f"Q={Q} must divide N={N}")
        if not 0 < self.power < np.inf:  # also false for NaN
            raise ConfigurationError(f"pilot power must be positive and finite, got {self.power}")
        sel = np.asarray(self.selections)
        if not (sel.dtype.kind in "iu" or sel.dtype.kind == "f"
                and np.all(np.isfinite(sel) & (sel == np.trunc(sel)))):  # NaN and inf fail too
            raise ConfigurationError(f"selections must hold integers, got dtype {sel.dtype}")
        sel = sel.astype(np.int64)
        rpb = T * N // Q
        if sel.shape != (Q, rpb):
            raise ConfigurationError(f"selections must be (Q, {rpb}), got {sel.shape}")
        if sel.min() < 0 or sel.max() >= K:
            raise ConfigurationError("selected DFT rows must lie in [0, K)")
        for q in range(Q):
            if np.unique(sel[q]).size != rpb:
                raise ConfigurationError(f"block {q} repeats a DFT row")
        object.__setattr__(self, "selections", sel)

        offsets = subblock_offsets(N // Q)
        object.__setattr__(self, "D_diag", np.tile(np.repeat(offsets, T), Q))
        object.__setattr__(self, "D2_diag", self.D_diag**2)
        object.__setattr__(self, "D2_mean", float(self.D2_diag.mean()))
        object.__setattr__(self, "scale", float(np.sqrt(self.power)))
        object.__setattr__(self, "roots", np.exp(-2j * np.pi * np.arange(K) / K))

    # -- shapes -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.T * self.N

    @property
    def cols(self) -> int:
        return self.Q * self.K

    @property
    def rows_per_block(self) -> int:
        return self.T * self.N // self.Q

    def _rows(self, M: int) -> np.ndarray:
        """Flat indices (q M + m) K + selections[q, r] of a (Q, M, K) block's pilot rows, by M."""
        if M not in self._row_index:
            q_m = np.arange(self.Q)[:, None, None] * M + np.arange(M)
            self._row_index[M] = q_m * self.K + self.selections[:, :, None]
        return self._row_index[M]

    # -- fast operator applications ---------------------------------------

    def apply_A(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a complex (K, Q, M) block x, whose forward DFTs run in place along the
        device axis: x holds its spectrum afterwards (see the module docstring).  Returns the
        (T*N, M) product."""
        if x.ndim != 3 or x.shape[:2] != (self.K, self.Q):
            raise DimensionError(f"x must be a ({self.K}, {self.Q}, M) block, got shape {x.shape}")
        w = x.transpose(1, 2, 0)  # (Q, M, K)
        halves(lambda q: np.fft.fft(w[q], out=w[q]), self.Q, w.size)
        y = w.take(self._rows(w.shape[1])).reshape(self.rows, -1)  # a copy, in row order
        y *= self.scale
        return y

    def apply_A_adjoint(self, y: np.ndarray, out: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """x + A^H @ y for y of shape (T*N, M), where spectrum is the (K, Q, M) block that
        `apply_A(x)` left; writes it into the (K, Q, M) block out and returns out.

        K sqrt(P) y is added to spectrum's selected rows, the inverse DFT runs from spectrum
        into out, and the saved rows are written back, so spectrum is left byte-equal; out may
        not share its memory.
        """
        if y.ndim != 2 or y.shape[0] != self.rows:
            raise DimensionError(f"y must be ({self.rows}, M), got shape {y.shape}")
        M = y.shape[1]
        blocks = y.reshape(self.Q, self.rows_per_block, M)  # (Q, rpb, M), in row order
        w = self._block("out", out, M)
        s = np.ascontiguousarray(self._block("spectrum", spectrum, M))  # a copy in another layout
        s_flat, index = s.reshape(-1), self._rows(M)

        def update_ifft(q):
            saved = s_flat[index[q]]
            s_flat[index[q]] = saved + self.K * self.scale * blocks[q]
            np.fft.ifft(s[q], out=w[q])
            s_flat[index[q]] = saved

        halves(update_ifft, self.Q, w.size)
        return out

    def _block(self, name: str, block: np.ndarray, M: int) -> np.ndarray:
        """The (Q, M, K) transpose of a caller's (K, Q, M) block, checked for its shape."""
        if block.shape != (self.K, self.Q, M):
            raise DimensionError(f"{name} must be a ({self.K}, {self.Q}, {M}) block, "
                                 f"got shape {block.shape}")
        return block.transpose(1, 2, 0)

    # -- physical pilot mixing --------------------------------------------

    def mix_subcarriers(self, X_active: np.ndarray, active: np.ndarray) -> np.ndarray:
        """The noiseless (T*N, M) observation sum_k Lambda_k X_k over the devices `active`,
        integer indices in [0, K); X_active is (a, N, M), row i device active[i]'s response.
        Fed the expanded block-wise responses H and C it reproduces A H + D A C.  Device k's
        symbol on DFT row s is scale * roots[(s k) mod K]."""
        X, active = np.asarray(X_active), np.asarray(active)
        if X.ndim != 3 or active.ndim != 1 or X.shape[:2] != (active.size, self.N):
            raise DimensionError(f"X_active must be ({active.size}, {self.N}, M) for "
                                 f"{active.size} device indices, got {X.shape}")
        if active.size and not (active.dtype.kind in "iu" and 0 <= active.min()
                                and active.max() < self.K):
            raise DimensionError(f"device indices must be integers in [0, {self.K})")
        index = self.selections.reshape(self.N, self.T, 1) * active.astype(np.int64) % self.K
        phases = self.roots[index]  # (N, T, a), from the exact integer index s k mod K
        return self.scale * (phases @ X.transpose(1, 0, 2)).reshape(self.rows, -1)


def check_pilot_rows(K: int, N: int, T: int, Q: int) -> None:
    """Raise `ConfigurationError` unless Q divides N and K holds T*N distinct DFT rows."""
    if N % Q != 0:
        raise ConfigurationError(f"Q={Q} must divide N={N}")
    if T * N > K:
        raise ConfigurationError(f"pilots need T*N <= K, got T*N={T * N} > K={K}")


def build_codebook(K: int, N: int, T: int, Q: int, P: float = 1.0, seed=0) -> PilotCodebook:
    """Draw T*N distinct DFT rows, T*N/Q per block, and assemble the pilot operators."""
    check_pilot_rows(K, N, T, Q)
    sel = np.random.default_rng(seed).choice(K, size=T * N, replace=False)
    return PilotCodebook(K=K, N=N, T=T, Q=Q, power=P, selections=sel.reshape(Q, -1))
