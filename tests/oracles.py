"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's fast paths: dense matrix
algebra, brute-force quadrature, posteriors formed before any extrinsic
closed form, and statistics derived straight from the model definitions.
"""

import numpy as np

from turbomp import ConfigurationError

DENSE_ENTRY_GUARD = 10**7


def dense_A(codebook):
    """Materialize the pilot matrix A (T*N x Q*K) entry by entry from the DFT
    row selections.  Guarded against oversized requests."""
    cb = codebook
    if cb.rows * cb.cols > DENSE_ENTRY_GUARD:
        raise ConfigurationError(
            f"dense A would have {cb.rows * cb.cols} entries (> {DENSE_ENTRY_GUARD}); "
            "use the operator form"
        )
    A = np.zeros((cb.rows, cb.cols), dtype=np.complex128)
    k = np.arange(cb.K)
    for q in range(cb.Q):
        rows = q * cb.rows_per_block + np.arange(cb.rows_per_block)
        block = cb.scale * np.exp(-2j * np.pi * np.outer(cb.selections[q], k) / cb.K)
        A[np.ix_(rows, k * cb.Q + q)] = block
    return A


def dense_B(codebook):
    """Materialize B = D A."""
    return codebook.D_diag[:, None] * dense_A(codebook)


def permutation(codebook):
    """Index map p with (P x)[i] = x[p[i]], reordering device-major
    coefficients into Q contiguous device-indexed blocks of length K."""
    return (np.arange(codebook.K)[None, :] * codebook.Q + np.arange(codebook.Q)[:, None]).ravel()


def e1(basis):
    """Dense N x Q mean-expansion matrix: block diagonal, all-ones columns."""
    out = np.zeros((basis.N, basis.Q))
    b = basis.block_size
    for q in range(basis.Q):
        out[q * b : (q + 1) * b, q] = 1.0
    return out


def e2(basis):
    """Dense N x Q slope-expansion matrix: block diagonal, offset-vector columns."""
    out = np.zeros((basis.N, basis.Q))
    b = basis.block_size
    for q in range(basis.Q):
        out[q * b : (q + 1) * b, q] = basis.offsets
    return out


def lmmse_posterior(y, h_pri, c_pri, v_h, v_c, sigma, codebook, slopes=False):
    """Posterior (mean, per-antenna variance) of the means (or, with slopes=True,
    the slopes) from the operators, without the extrinsic closed form.

    With r = y - A h_pri - B c_pri, row weight w = 1 (or D), prior (x, v),
    u = A^H (w r / Sigma) and g = (P/Q) sum_i w_i^2 / Sigma_ii, the posterior
    mean is x + v u and the variance max(v - v^2 g, 0).
    """
    x, v, w = (c_pri, v_c, codebook.D_diag) if slopes else (h_pri, v_h, np.ones(codebook.rows))
    resid = np.asarray(y, dtype=np.complex128) - codebook.apply_A(h_pri) - codebook.apply_B(c_pri)
    w = w.reshape((-1,) + (1,) * (sigma.ndim - 1))
    u = codebook.apply_A_adjoint(w * (resid / sigma))
    g = (codebook.power / codebook.Q) * np.sum(w**2 / sigma, axis=0)
    return x + v * u, np.maximum(v - v**2 * g, 0.0)


def combine(mean_a, v_a, mean_b, v_b):
    """Precision-weighted fusion of two Gaussian messages; returns (mean, variance)."""
    v = 1.0 / (1.0 / np.asarray(v_a, dtype=float) + 1.0 / np.asarray(v_b, dtype=float))
    return v * (mean_a / v_a + mean_b / v_b), v


def dense_joint_lmmse(y, A, B, h_pri, c_pri, v_h, v_c, sigma_w2):
    """Exact joint LMMSE over the stacked (means, slopes) unknowns.

    Returns (h_post, c_post, v_h_avg, v_c_avg) where the variances are the
    posterior covariance diagonals averaged over each half.
    """
    n = A.shape[1]
    Ms = np.hstack([A, B])
    Vp = np.concatenate([np.full(n, v_h), np.full(n, v_c)])
    Sigma = (Ms * Vp) @ Ms.conj().T + sigma_w2 * np.eye(A.shape[0])
    x_pri = np.concatenate([h_pri, c_pri])
    gain = (Vp[:, None] * Ms.conj().T) @ np.linalg.inv(Sigma)
    x_post = x_pri + gain @ (y - Ms @ x_pri)
    X = np.linalg.solve(Sigma, Ms)
    reduction = Vp**2 * np.einsum("ij,ij->j", Ms.conj(), X).real
    post_diag = Vp - reduction
    return x_post[:n], x_post[n:], post_diag[:n].mean(), post_diag[n:].mean()


def bg_scalar_reference(r, v, theta, lam, n_grid=20001):
    """Brute-force posterior of a scalar spike-and-slab variable.

    The unknown is zero w.p. (1-lam) and CN(0, theta) w.p. lam; r is its
    observation under CN noise with variance v.  The Gaussian branch is
    integrated numerically per real axis (the complex density factorizes);
    only the spike branch uses the closed-form density value.
    Returns (lambda_post, posterior mean, elementwise posterior variance).
    """

    from scipy.integrate import simpson

    def axis_moments(obs):
        L = abs(obs) + 10.0 * np.sqrt((v + theta) / 2.0) + 1.0
        u = np.linspace(-L, L, n_grid)
        dens = (
            np.exp(-(u**2) / theta) / np.sqrt(np.pi * theta)
            * np.exp(-((obs - u) ** 2) / v) / np.sqrt(np.pi * v)
        )
        z = simpson(dens, x=u)
        m1 = simpson(u * dens, x=u)
        m2 = simpson(u**2 * dens, x=u)
        return z, m1, m2

    zr, m1r, m2r = axis_moments(r.real)
    zi, m1i, m2i = axis_moments(r.imag)
    z_gauss = zr * zi
    z_spike = np.exp(-abs(r) ** 2 / v) / (np.pi * v)

    w1 = lam * z_gauss
    w0 = (1.0 - lam) * z_spike
    lambda_post = w1 / (w0 + w1)
    mean_gauss = m1r / zr + 1j * (m1i / zi)
    second_gauss = m2r / zr + m2i / zi
    mean = lambda_post * mean_gauss
    var = lambda_post * second_gauss - abs(mean) ** 2
    return lambda_post, mean, var


def genie_support_lmmse(Y, codebook, activity, theta_H, theta_C, sigma2):
    """Joint LMMSE given the true active set (dense; small configs only).

    Returns full-size (QK, M) estimates with zeros outside the support.
    """
    Q = codebook.Q
    active = np.flatnonzero(activity)
    cols = (active[:, None] * Q + np.arange(Q)).ravel()
    A = dense_A(codebook)
    B = dense_B(codebook)
    Ms = np.hstack([A[:, cols], B[:, cols]])
    Vp = np.concatenate([np.full(cols.size, theta_H), np.full(cols.size, theta_C)])
    Sigma = (Ms * Vp) @ Ms.conj().T + sigma2 * np.eye(codebook.rows)
    xhat = Vp[:, None] * (Ms.conj().T @ np.linalg.solve(Sigma, Y))
    M = Y.shape[1]
    H = np.zeros((codebook.cols, M), dtype=np.complex128)
    C = np.zeros((codebook.cols, M), dtype=np.complex128)
    H[cols] = xhat[: cols.size]
    C[cols] = xhat[cols.size :]
    return H, C


def expected_mismatch_ratio(profile, N, Q, delta_f):
    """Closed-form E||Delta||^2 / E||G||^2 of the block-wise linear fit.

    Uses the frequency correlation R(dn) = sum_l rho_l exp(-2j pi df tau_l dn)
    of the tapped-delay-line model and the per-block projection residual.
    """
    b = N // Q
    lags = np.arange(b)[:, None] - np.arange(b)[None, :]
    R = np.sum(
        profile.powers[:, None, None]
        * np.exp(-2j * np.pi * delta_f * profile.delays[:, None, None] * lags[None]),
        axis=0,
    )
    d = np.arange(1, b + 1) - b / 2.0
    X = np.column_stack([np.ones(b), d])
    P = np.eye(b) - X @ np.linalg.inv(X.T @ X) @ X.T
    resid_energy = float(np.trace(P @ R).real)
    return Q * resid_energy / N


def nmse_full_expansion(G, H, C, basis, activity):
    """Aggregate NMSE with every device's estimate expanded to all N subcarriers
    through the dense E1/E2 matrices."""
    K, N, M = G.shape
    Q = basis.Q
    recon = (np.einsum("nq,kqm->knm", e1(basis), H.reshape(K, Q, M))
             + np.einsum("nq,kqm->knm", e2(basis), C.reshape(K, Q, M)))
    err = np.sum(np.abs(G - recon) ** 2)
    return err / np.sum(np.abs(G[np.asarray(activity) != 0]) ** 2)


def mix_subcarriers_fft(codebook, X):
    """Pilot mixing through a K-point FFT over all devices, zero rows included:
    observation row r is scale * FFT(X)[s_r, n_r], with s_r its DFT row and
    n_r = r // T its subcarrier."""
    X = np.asarray(X)
    Xf = np.fft.fft(X.reshape(codebook.K, codebook.N, -1), axis=0)
    n_of_row = np.repeat(np.arange(codebook.N), codebook.T)
    y = codebook.scale * Xf[codebook.selections.ravel(), n_of_row]
    return y[:, 0] if X.ndim == 2 else y


def sigmoid_masked(x):
    """Logistic function evaluated separately on the two sign masks:
    1/(1 + exp(-x)) where x >= 0 and exp(x)/(1 + exp(x)) elsewhere."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(np.shape(x))
