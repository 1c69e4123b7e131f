"""Structured pilot operators with a fast DFT application path.

The wide pilot matrix A maps stacked per-device sub-block coefficients
(length Q*K, device-major) to T*N observation rows.  It factors as a
permutation into Q device-indexed blocks, a scaled K-point DFT per block,
and a row gather, which keeps every matrix-vector product at
O(Q*K*log K).  Each implied pilot symbol has squared magnitude P, and the
row structure gives the partial orthogonality A @ A^H = K*P*I that the
linear estimator relies on.  B shares the factorization through the real
diagonal D: B = D @ A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _as_rng
from .errors import ConfigurationError, DimensionError


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
        if N % Q != 0:
            raise ConfigurationError(f"Q={Q} must divide N={N}")
        if (T * N) % Q != 0:
            raise ConfigurationError(f"Q={Q} must divide T*N={T * N}")
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

        b = N // Q
        offsets = np.arange(1, b + 1, dtype=float) - b / 2
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
        """A @ x for x of shape (Q*K,) or (Q*K, M)."""
        x = np.asarray(x)
        self._check_len(x, self.cols, "x")
        vec = x.ndim == 1
        cols = x.reshape(self.K, self.Q, -1).transpose(1, 0, 2)  # (Q, K, M)
        w = np.fft.fft(cols, axis=1)
        y = w[np.arange(self.Q)[:, None], self.selections]  # (Q, rpb, M)
        y = self.scale * y.reshape(self.rows, -1)
        return y[:, 0] if vec else y

    def apply_A_adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^H @ y for y of shape (T*N,) or (T*N, M); the inverse DFT runs over
        the devices of a device-major (K, Q, M) array, already in output order."""
        y = np.asarray(y)
        self._check_len(y, self.rows, "y")
        vec = y.ndim == 1
        blocks = y.reshape(self.Q, self.rows_per_block, -1)
        w = np.zeros((self.K, self.Q, blocks.shape[2]), dtype=np.complex128)
        w[self.selections, np.arange(self.Q)[:, None]] = self.scale * blocks
        x = np.fft.ifft(w, axis=0, norm="forward").reshape(self.cols, -1)
        return x[:, 0] if vec else x

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

    def mix_subcarriers(self, X: np.ndarray) -> np.ndarray:
        """Superimpose per-device per-subcarrier signals through the pilots.

        X has shape (K, N) or (K, N, M); the result is the noiseless
        observation sum_k Lambda_k X_k of shape (T*N,) or (T*N, M).  Feeding
        the expanded block-wise responses reproduces apply_A/apply_B exactly.
        Only devices with a nonzero row enter the sum: device k's symbol on
        DFT row s is scale * roots[(s k) mod K], with the exact integer index.
        """
        X = np.asarray(X)
        if X.shape[0] != self.K or X.shape[1] != self.N:
            raise DimensionError(f"X must be (K={self.K}, N={self.N}, ...), got {X.shape}")
        vec = X.ndim == 2
        X = X.reshape(self.K, self.N, -1)
        active = np.flatnonzero(X.reshape(self.K, -1).any(axis=1))
        index = self.selections.reshape(self.N, self.T, 1) * active  # (N, T, a): s k, exact
        index %= self.K
        phases = self.roots[index]
        y = self.scale * (phases @ X[active].transpose(1, 0, 2)).reshape(self.rows, -1)
        return y[:, 0] if vec else y


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
    if N % Q != 0:
        raise ConfigurationError(f"Q={Q} must divide N={N}")
    total = T * N
    rpb = total // Q
    rng = _as_rng(seed)
    if strict:
        if total > K:
            raise ConfigurationError(
                f"strict selections impossible: T*N={total} > K={K}; "
                "pass strict=False to allow per-block reuse"
            )
        sel = rng.choice(K, size=total, replace=False).reshape(Q, rpb)
    else:
        if rpb > K:
            raise ConfigurationError(f"even one block needs {rpb} distinct rows, K={K}")
        sel = np.stack([rng.choice(K, size=rpb, replace=False) for _ in range(Q)])
    return PilotCodebook(K=K, N=N, T=T, Q=Q, power=P, selections=sel, strict=strict)
