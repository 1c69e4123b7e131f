"""Structured pilot operators with a fast DFT application path.

The wide pilot matrix A maps stacked per-device sub-block coefficients (length Q*K,
device-major) to T*N observation rows.  It factors as a permutation into Q device-indexed
blocks, a scaled K-point DFT per block, and a row gather, which keeps every matrix-vector
product at O(Q*K*log K).  Each implied pilot symbol has squared magnitude P, and the row
structure gives the partial orthogonality A @ A^H = K*P*I that the linear estimator relies on.
B shares the factorization through the real diagonal D: B = D @ A.

Coefficients enter as (Q*K,) vectors, device-major (Q*K, M) matrices or (K, Q, M) blocks; the
adjoints return a matrix as (K, Q, M) blocks with the strides of a C-ordered (Q, M, K) array
("device-contiguous").  Every DFT runs along the device axis, which such blocks hold
contiguously, so pocketfft reads it without a copy: bitwise the values of a C-ordered input in
about half the time at K=16000.  At large K both operators split their Q sub-blocks into two
halves on two threads (`parallel.halves`): the forward DFTs, and the adjoint's zeroing, scatter
and inverse DFTs.  Each sub-block is transformed alike in either half, so outputs are bitwise
independent of the split; pool workers never split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import subblock_offsets
from .errors import ConfigurationError, DimensionError
from .parallel import halves


@dataclass(frozen=True)
class PilotCodebook:
    """Immutable pilot operator pair (A, B) plus construction metadata.

    selections holds Q rows of T*N/Q DFT-row indices; they are pairwise
    disjoint across blocks when built in strict mode.  D_diag is the
    diagonal of D, the per-row sub-block offset; scale is sqrt(P); roots[i]
    is exp(-2j pi i / K).
    """

    K: int
    N: int
    T: int
    Q: int
    power: float
    selections: np.ndarray
    strict: bool = True
    D_diag: np.ndarray = field(init=False, repr=False)
    roots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        K, N, T, Q = self.K, self.N, self.T, self.Q
        if min(K, N, T, Q) < 1:
            raise ConfigurationError("K, N, T, Q must all be >= 1")
        check_pilot_rows(K, N, T, Q, self.strict)
        if self.power <= 0:
            raise ConfigurationError(f"pilot power must be positive, got {self.power}")
        sel = np.asarray(self.selections, dtype=np.int64)
        rpb = T * N // Q
        if sel.shape != (Q, rpb):
            raise ConfigurationError(f"selections must be (Q, {rpb}), got {sel.shape}")
        if sel.min() < 0 or sel.max() >= K:
            raise ConfigurationError("selected DFT rows must lie in [0, K)")
        for q in range(Q):
            if np.unique(sel[q]).size != rpb:
                raise ConfigurationError(f"block {q} repeats a DFT row")
        if self.strict and np.unique(sel).size != Q * rpb:
            raise ConfigurationError("strict mode requires globally disjoint row selections")
        object.__setattr__(self, "selections", sel)

        offsets = subblock_offsets(N // Q)
        object.__setattr__(self, "D_diag", np.tile(np.repeat(offsets, T), Q))
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

    @property
    def scale(self) -> float:
        return float(np.sqrt(self.power))

    # -- fast operator applications ---------------------------------------

    def _check_len(self, v, expected, name):
        if v.shape[0] != expected:
            raise DimensionError(f"{name} has leading dim {v.shape[0]}, expected {expected}")

    def apply_A(self, x: np.ndarray) -> np.ndarray:
        """A @ x for x of shape (Q*K,), (Q*K, M) or (K, Q, M); returns (T*N,) or (T*N, M).
        The DFT runs along the device axis, which device-contiguous blocks hold contiguously."""
        x = np.asarray(x)
        if (x.shape[:2] != (self.K, self.Q)) if x.ndim == 3 else (x.shape[0] != self.cols):
            raise DimensionError(f"x must be ({self.cols},), ({self.cols}, M) or "
                                 f"({self.K}, {self.Q}, M), got {x.shape}")
        rows = x.reshape(self.K, self.Q, -1).transpose(1, 2, 0)  # (Q, M, K)
        w = np.empty(rows.shape, dtype=np.result_type(x.dtype, 1j))
        halves(lambda q: np.fft.fft(rows[q], out=w[q]), self.Q, w.size)
        y = np.take_along_axis(w, self.selections[:, None, :], axis=-1)  # (Q, M, rpb)
        y = self.scale * y.transpose(0, 2, 1).reshape(self.rows, -1)
        return y[:, 0] if x.ndim == 1 else y

    def apply_A_adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^H @ y for y of shape (T*N,) or (T*N, M); returns (Q*K,) or (K, Q, M) blocks.

        The rows are scattered into a zeroed (Q, M, K) array and the inverse DFT runs in
        place along its contiguous last axis (a separate output array nearly doubled the
        time at K=16000); a matrix y gets the device-contiguous (K, Q, M) transpose view.
        """
        y = np.asarray(y)
        self._check_len(y, self.rows, "y")
        blocks = y.reshape(self.Q, self.rows_per_block, -1).transpose(0, 2, 1)  # (Q, M, rpb)
        w = np.empty((self.Q, blocks.shape[1], self.K), dtype=np.complex128)

        def scatter_ifft(q):
            w[q] = 0
            np.put_along_axis(w[q], self.selections[q, None], self.scale * blocks[q], axis=-1)
            np.fft.ifft(w[q], norm="forward", out=w[q])

        halves(scatter_ifft, self.Q, w.size)
        x = w.transpose(2, 0, 1)  # (K, Q, M)
        return x.reshape(self.cols) if y.ndim == 1 else x

    def apply_B(self, x: np.ndarray) -> np.ndarray:
        """B @ x, with B = D @ A."""
        y = self.apply_A(x)
        return y * (self.D_diag if y.ndim == 1 else self.D_diag[:, None])

    def apply_B_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        self._check_len(y, self.rows, "y")
        scaled = y * (self.D_diag if y.ndim == 1 else self.D_diag[:, None])
        return self.apply_A_adjoint(scaled)

    # -- physical pilot mixing --------------------------------------------

    def mix_subcarriers(self, X_active: np.ndarray, active: np.ndarray) -> np.ndarray:
        """The noiseless observation sum_k Lambda_k X_k over the devices `active`, integer
        indices in [0, K); X_active is (a, N) or (a, N, M), row i device active[i]'s signal, and
        the result (T*N,) or (T*N, M).  Fed the expanded block-wise responses it reproduces
        apply_A/apply_B.  Device k's symbol on DFT row s is scale * roots[(s k) mod K]."""
        X, active = np.asarray(X_active), np.asarray(active)
        if X.ndim not in (2, 3) or active.ndim != 1 or X.shape[:2] != (active.size, self.N):
            raise DimensionError(f"X_active must be ({active.size}, {self.N}, ...) for "
                                 f"{active.size} device indices, got {X.shape}")
        if active.size and not (active.dtype.kind in "iu" and 0 <= active.min()
                                and active.max() < self.K):
            raise DimensionError(f"device indices must be integers in [0, {self.K})")
        index = self.selections.reshape(self.N, self.T, 1) * active.astype(np.int64) % self.K
        phases = self.roots[index]  # (N, T, a), from the exact integer index s k mod K
        y = phases @ (X if X.ndim == 3 else X[:, :, None]).transpose(1, 0, 2)
        y = self.scale * y.reshape(self.rows, -1)
        return y[:, 0] if X.ndim == 2 else y


def check_pilot_rows(K: int, N: int, T: int, Q: int, strict: bool) -> None:
    """Raise `ConfigurationError` unless Q divides N and selections of K rows can exist."""
    if N % Q != 0:
        raise ConfigurationError(f"Q={Q} must divide N={N}")
    if strict and T * N > K:
        raise ConfigurationError(f"strict pilots need T*N <= K, got T*N={T * N} > K={K}")
    if T * N // Q > K:
        raise ConfigurationError(f"pilots need T*N/Q <= K, got T*N/Q={T * N // Q} > K={K}")


def build_codebook(
    K: int,
    N: int,
    T: int,
    Q: int,
    P: float = 1.0,
    seed=0,
    strict: bool = True,
) -> PilotCodebook:
    """Draw the random row selections and assemble the pilot operators.

    Strict mode (default) requires T*N <= K and draws all selections without
    replacement globally, so no DFT row is reused anywhere.  Relaxed mode
    only keeps rows distinct within each block, which admits T*N > K at the
    cost of reusing rows across sub-blocks.
    """
    check_pilot_rows(K, N, T, Q, strict)
    rpb = T * N // Q
    rng = np.random.default_rng(seed)
    if strict:
        sel = rng.choice(K, size=T * N, replace=False).reshape(Q, rpb)
    else:
        sel = np.stack([rng.choice(K, size=rpb, replace=False) for _ in range(Q)])
    return PilotCodebook(K=K, N=N, T=T, Q=Q, power=P, selections=sel, strict=strict)
