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


@dataclass(frozen=True, eq=False)
class MultipathProfile:
    """Power delay profile: per-tap linear power fractions and delays in seconds.

    Powers must be positive and sum to one (unit average channel energy);
    delays must be nonnegative and strictly increasing.  Compared by identity (eq=False).
    """

    powers: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        delays = np.asarray(self.delays, dtype=float)
        if powers.ndim != 1 or powers.size == 0 or powers.shape != delays.shape:
            raise ParameterError("profile needs matching non-empty power/delay vectors")
        if not (np.all(np.isfinite(powers)) and np.all(np.isfinite(delays))):
            raise ParameterError("tap powers and delays must be finite")
        if np.any(powers <= 0):
            raise ParameterError("tap powers must be positive")
        if abs(powers.sum() - 1.0) > POWER_SUM_TOL:
            raise ParameterError(f"tap powers must sum to 1, got {powers.sum()!r}")
        if np.any(delays < 0) or np.any(np.diff(delays) <= 0):
            raise ParameterError("tap delays must be >= 0 and strictly increasing")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "delays", delays)


def example_pdp_path() -> str:
    """Path of the bundled example NLOS profile (300 ns rms delay spread)."""
    from importlib.resources import files

    return str(files("turbomp.data").joinpath("example_nlos_300ns.pdp"))


def load_pdp(path) -> MultipathProfile:
    """Read a power delay profile from a plain-text file.

    One "power delay_seconds" pair per line; '#' starts a comment; blank
    lines are ignored.  The powers are scaled to sum to one.  A file that cannot be read or
    decoded raises ParameterError, as does a malformed one.
    """
    powers, delays = [], []
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    power, delay = map(float, line.split())
                except ValueError:  # a count other than two, or a token that is not a number
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'power delay', got {raw!r}") from None
                powers.append(power)
                delays.append(delay)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read power delay profile {path}: {exc}") from None
    powers = np.asarray(powers, dtype=float)
    total = powers.sum()
    if total <= 0:
        raise ParameterError(f"{path}: total tap power must be positive")
    powers = powers / total
    return MultipathProfile(powers=powers, delays=delays)


def subblock_offsets(b: int) -> np.ndarray:
    """The slope's offset vector d = [1, ..., b] - b/2 over a sub-block of b subcarriers."""
    return np.arange(1, b + 1, dtype=float) - b / 2


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Ground truth for one trial: activity (K,) and G_active (a, N, M), row i the response of
    device active[i], where active = flatnonzero(activity).  Inactive devices' responses are
    zero and held nowhere; compared by identity (eq=False), as arrays have no truth value."""

    activity: np.ndarray
    G_active: np.ndarray

    def __post_init__(self):
        if (np.ndim(self.activity) != 1 or np.ndim(self.G_active) != 3
                or len(self.G_active) != np.count_nonzero(self.activity)):
            raise DimensionError(f"G_active {np.shape(self.G_active)} must hold one (N, M) "
                                 f"row per active device of {np.shape(self.activity)}")

    @property
    def active(self) -> np.ndarray:
        return np.flatnonzero(self.activity)

    @property
    def G(self) -> np.ndarray:
        """Dense (K, N, M) responses, zero for inactive devices, built on each access for the
        tests and the benchmark probe; no library module reads it."""
        G = np.zeros((self.activity.size, *self.G_active.shape[1:]), dtype=self.G_active.dtype)
        G[self.active] = self.G_active
        return G


@dataclass(frozen=True)
class BlockwiseBasis:
    """Sub-block expansion of the mean-plus-slope channel model.

    `expand` applies G = E1 H + E2 C, where E1 is block diagonal with all-ones
    columns of length N/Q and E2 is block diagonal with the integer offset
    vector d = [-N/(2Q)+1, ..., N/(2Q)] (`offsets`, derived, so it compares by (N, Q)).
    """

    N: int
    Q: int
    offsets: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if self.Q < 1 or self.N % self.Q != 0:
            raise ConfigurationError(f"Q={self.Q} must divide N={self.N}")
        if self.N // self.Q < 2:
            raise ConfigurationError(
                "sub-blocks need at least 2 subcarriers (slope is meaningless otherwise); "
                "use a larger N/Q and a near-zero slope variance instead"
            )
        object.__setattr__(self, "offsets", subblock_offsets(self.N // self.Q))

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


@dataclass(eq=False)
class BlockwiseTruth:
    """Stacked sub-block means H, slopes C (both QK x M) and the active rows' residual Delta;
    compared by identity (eq=False), as arrays have no truth value."""

    H: np.ndarray
    C: np.ndarray
    Delta: np.ndarray


def sample_activity(K: int, lam: float, seed) -> np.ndarray:
    """Draw the K-device activity vector, i.i.d. Bernoulli(lam)."""
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"activity rate must be in (0, 1), got {lam}")
    rng = np.random.default_rng(seed)
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
    E|g|^2 = 1 on every subcarrier of an active device.  Only the active
    devices' gains are drawn, and the realization holds only their responses.
    """
    if M < 1 or N < 1:
        raise ParameterError(f"M={M} and N={N} must be >= 1")
    if not np.isfinite(delta_f):
        raise ParameterError(f"delta_f must be finite, got {delta_f}")
    activity = np.asarray(activity)
    a = np.count_nonzero(activity)
    rng = np.random.default_rng(seed)

    L = profile.powers.size
    beta = (rng.standard_normal((a, M, L)) + 1j * rng.standard_normal((a, M, L))) / np.sqrt(2.0)
    phase = np.exp(-2j * np.pi * delta_f * np.outer(profile.delays, np.arange(1, N + 1)))  # (L, N)
    weighted = beta * np.sqrt(profile.powers)  # (a, M, L)
    # C order: in any other layout the mixer's matmul rounds differently
    G_active = np.einsum("aml,ln->anm", weighted, phase, order="C")
    return ChannelRealization(activity=activity.astype(np.int8), G_active=G_active)


def project_blockwise(realization: ChannelRealization, basis: BlockwiseBasis) -> BlockwiseTruth:
    """Least-squares mean/slope fit of each sub-block, per active device and antenna.

    The offset vector d is not zero mean, so the 2x2 normal equations are solved
    jointly.  H and C hold every device, zero rows for the inactive ones; the residual
    Delta (a x N x M) completes G_active = E1 H + E2 C + Delta on the active rows.
    """
    G = realization.G_active
    a, N, M = G.shape
    if N != basis.N:
        raise DimensionError(f"realization has N={N}, basis has N={basis.N}")
    K, Q, b = realization.activity.size, basis.Q, basis.block_size
    d = basis.offsets
    sd = d.sum()
    sdd = (d * d).sum()
    det = b * sdd - sd * sd

    blocks = G.reshape(a, Q, b, M)
    sg = blocks.sum(axis=2)
    sdg = np.einsum("kqbm,b->kqm", blocks, d)
    h = (sdd * sg - sd * sdg) / det
    c = (b * sdg - sd * sg) / det

    H, C = np.zeros((2, K, Q, M), dtype=np.complex128)
    H[realization.active], C[realization.active] = h, c
    Delta = G - basis.expand(h.reshape(a * Q, M), c.reshape(a * Q, M))
    return BlockwiseTruth(H=H.reshape(K * Q, M), C=C.reshape(K * Q, M), Delta=Delta)


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
    the returned realization has G_active = E1 H + E2 C, i.e. zero model mismatch.
    Intended for oracle tests where the estimator's prior is exact.  Allows
    lam = 1 (all devices active), unlike the physical activity sampler.
    """
    if not (0 < theta_H < np.inf and 0 <= theta_C < np.inf):  # also false for NaN
        raise ParameterError("prior variances must be positive and finite (theta_C may be 0)")
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"activity rate must be in (0, 1], got {lam}")
    rng = np.random.default_rng(seed)
    activity = (rng.random(K) < lam).astype(np.int8)

    Q = basis.Q
    H, C = np.zeros((2, K * Q, M), dtype=np.complex128)
    rows = (np.flatnonzero(activity)[:, None] * Q + np.arange(Q)).ravel()
    for out, var in ((H, theta_H), (C, theta_C)):
        z = rng.standard_normal((rows.size, M)) + 1j * rng.standard_normal((rows.size, M))
        out[rows] = np.sqrt(var / 2.0) * z

    G_active = basis.expand(H[rows], C[rows])
    truth = BlockwiseTruth(H=H, C=C, Delta=np.zeros_like(G_active))
    return truth, ChannelRealization(activity=activity, G_active=G_active)
