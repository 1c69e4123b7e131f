"""Multipath channel generation and the block-wise linear decomposition.

The physical model is a tapped-delay-line channel observed in the frequency
domain on N adjacent subcarriers: each active device contributes a response

    g[k, n, m] = sum_l sqrt(rho_l) * beta[k, m, l] * exp(-2j*pi*delta_f*tau_l*n)

with i.i.d. unit complex-Gaussian tap gains beta.  The block-wise linear
decomposition splits the N subcarriers into Q equal sub-blocks and fits a
mean-plus-slope line to the response inside each sub-block; the residual is
the model-mismatch term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, ParameterError

POWER_SUM_TOL = 1e-9


def _as_rng(seed) -> np.random.Generator:
    """Accept an int seed, SeedSequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MultipathProfile:
    """Power delay profile: per-tap linear power fractions and delays in seconds.

    Powers must be positive and sum to one (unit average channel energy);
    delays must be nonnegative and strictly increasing.
    """

    powers: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        delays = np.asarray(self.delays, dtype=float)
        if powers.ndim != 1 or powers.size == 0 or powers.shape != delays.shape:
            raise ParameterError("profile needs matching non-empty power/delay vectors")
        if np.any(powers <= 0):
            raise ParameterError("tap powers must be positive")
        if abs(powers.sum() - 1.0) > POWER_SUM_TOL:
            raise ParameterError(f"tap powers must sum to 1, got {powers.sum()!r}")
        if np.any(delays < 0) or np.any(np.diff(delays) <= 0):
            raise ParameterError("tap delays must be >= 0 and strictly increasing")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "delays", delays)

    @property
    def num_taps(self) -> int:
        return self.powers.size


def example_pdp_path() -> str:
    """Path of the bundled example NLOS profile (300 ns rms delay spread)."""
    from importlib.resources import files

    return str(files("turbomp.data").joinpath("example_nlos_300ns.pdp"))


def load_pdp(path) -> MultipathProfile:
    """Read a power delay profile from a plain-text file.

    One "power delay_seconds" pair per line; '#' starts a comment; blank
    lines are ignored.  The powers are scaled to sum to one.
    """
    powers, delays = [], []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(f"{path}:{lineno}: expected 'power delay', got {raw!r}")
            powers.append(float(parts[0]))
            delays.append(float(parts[1]))
    powers = np.asarray(powers, dtype=float)
    delays = np.asarray(delays, dtype=float)
    total = powers.sum()
    if total <= 0:
        raise ParameterError(f"{path}: total tap power must be positive")
    powers = powers / total
    return MultipathProfile(powers=powers, delays=delays)


@dataclass
class ChannelRealization:
    """Ground truth for one trial: activity vector and response tensor.

    G has shape (K, N, M); rows of inactive devices are exactly zero.
    """

    G: np.ndarray
    activity: np.ndarray


@dataclass(frozen=True)
class BlockwiseBasis:
    """Sub-block expansion of the mean-plus-slope channel model.

    `expand` applies G = E1 H + E2 C, where E1 is block diagonal with all-ones
    columns of length N/Q and E2 is block diagonal with the integer offset
    vector d = [-N/(2Q)+1, ..., N/(2Q)] (`offsets`).
    """

    N: int
    Q: int
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.Q < 1 or self.N % self.Q != 0:
            raise ConfigurationError(f"Q={self.Q} must divide N={self.N}")
        if self.N // self.Q < 2:
            raise ConfigurationError(
                "sub-blocks need at least 2 subcarriers (slope is meaningless otherwise); "
                "use a larger N/Q and a near-zero slope variance instead"
            )
        b = self.N // self.Q
        object.__setattr__(self, "offsets", np.arange(1, b + 1, dtype=float) - b / 2)

    @property
    def block_size(self) -> int:
        return self.N // self.Q

    def expand(self, H: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Map stacked means/slopes (QK x M) to responses (K x N x M)."""
        if H.shape != C.shape or H.shape[0] % self.Q != 0:
            raise DimensionError(f"H/C must both be (Q*K, M) with Q={self.Q}")
        K = H.shape[0] // self.Q
        M = H.shape[1]
        b = self.block_size
        h = H.reshape(K, self.Q, M)
        c = C.reshape(K, self.Q, M)
        g = np.repeat(h, b, axis=1) + np.repeat(c, b, axis=1) * np.tile(
            self.offsets, self.Q
        ).reshape(1, self.N, 1)
        return g


@dataclass
class BlockwiseTruth:
    """Stacked sub-block means H, slopes C (both QK x M) and residual Delta (K x N x M)."""

    H: np.ndarray
    C: np.ndarray
    Delta: np.ndarray


def blockwise_basis(N: int, Q: int) -> BlockwiseBasis:
    """Build the sub-block expansion operators for N subcarriers in Q blocks."""
    return BlockwiseBasis(N=N, Q=Q)


def sample_activity(K: int, lam: float, seed) -> np.ndarray:
    """Draw the K-device activity vector, i.i.d. Bernoulli(lam)."""
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"activity rate must be in (0, 1), got {lam}")
    rng = _as_rng(seed)
    return (rng.random(K) < lam).astype(np.int8)


def sample_channel(
    profile: MultipathProfile,
    activity: np.ndarray,
    M: int,
    N: int,
    delta_f: float,
    seed,
) -> ChannelRealization:
    """Draw frequency responses for the active devices of one trial.

    Tap gains are i.i.d. CN(0, 1); the profile's unit power sum gives
    E|g|^2 = 1 on every subcarrier of an active device.  Inactive devices
    get exactly-zero slices (their gains are never drawn).
    """
    if M < 1 or N < 1:
        raise ParameterError(f"M={M} and N={N} must be >= 1")
    activity = np.asarray(activity)
    K = activity.size
    rng = _as_rng(seed)

    G = np.zeros((K, N, M), dtype=np.complex128)
    active = np.flatnonzero(activity)
    if active.size:
        L = profile.num_taps
        beta = (
            rng.standard_normal((active.size, M, L))
            + 1j * rng.standard_normal((active.size, M, L))
        ) / np.sqrt(2.0)
        n = np.arange(1, N + 1)
        phase = np.exp(-2j * np.pi * delta_f * np.outer(profile.delays, n))  # (L, N)
        weighted = beta * np.sqrt(profile.powers)  # (a, M, L)
        G[active] = np.einsum("aml,ln->anm", weighted, phase)
    return ChannelRealization(G=G, activity=activity.astype(np.int8))


def project_blockwise(realization: ChannelRealization, basis: BlockwiseBasis) -> BlockwiseTruth:
    """Least-squares mean/slope fit of each sub-block, per device and antenna.

    The offset vector d is not zero mean, so the 2x2 normal equations are
    solved jointly; the residual Delta completes the exact reconstruction
    G = E1 H + E2 C + Delta.
    """
    G = realization.G
    K, N, M = G.shape
    if N != basis.N:
        raise DimensionError(f"realization has N={N}, basis has N={basis.N}")
    b = basis.block_size
    d = basis.offsets
    sd = d.sum()
    sdd = (d * d).sum()
    det = b * sdd - sd * sd

    blocks = G.reshape(K, basis.Q, b, M)
    sg = blocks.sum(axis=2)
    sdg = np.einsum("kqbm,b->kqm", blocks, d)
    h = (sdd * sg - sd * sdg) / det
    c = (b * sdg - sd * sg) / det

    H = h.reshape(K * basis.Q, M)
    C = c.reshape(K * basis.Q, M)
    Delta = G - basis.expand(H, C)
    return BlockwiseTruth(H=H, C=C, Delta=Delta)


def sample_blockwise_exact(
    K: int,
    M: int,
    basis: BlockwiseBasis,
    lam: float,
    theta_H: float,
    theta_C: float,
    seed,
) -> tuple[BlockwiseTruth, ChannelRealization]:
    """Draw synthetic data that follows the block-sparse Gaussian prior exactly.

    Active devices get i.i.d. CN(0, theta_H) means and CN(0, theta_C) slopes;
    the returned realization has G = E1 H + E2 C, i.e. zero model mismatch.
    Intended for oracle tests where the estimator's prior is exact.  Allows
    lam = 1 (all devices active), unlike the physical activity sampler.
    """
    if theta_H <= 0 or theta_C < 0:
        raise ParameterError("prior variances must be positive (theta_C may be 0)")
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"activity rate must be in (0, 1], got {lam}")
    rng = _as_rng(seed)
    activity = (rng.random(K) < lam).astype(np.int8)

    Q = basis.Q
    H = np.zeros((K * Q, M), dtype=np.complex128)
    C = np.zeros((K * Q, M), dtype=np.complex128)
    active = np.flatnonzero(activity)
    if active.size:
        def cgauss(var, shape):
            if var == 0:
                return np.zeros(shape, dtype=np.complex128)
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return np.sqrt(var / 2.0) * z

        rows = (active[:, None] * Q + np.arange(Q)).ravel()
        H[rows] = cgauss(theta_H, (active.size * Q, M))
        C[rows] = cgauss(theta_C, (active.size * Q, M))

    G = basis.expand(H, C)
    truth = BlockwiseTruth(H=H, C=C, Delta=np.zeros_like(G))
    return truth, ChannelRealization(G=G, activity=activity)
