"""Independent reference implementations used as test oracles.

Everything here is written against the definitions directly, with plain
loops or einsums and no calls into modop's transform internals, so that
agreement between a library routine and its oracle is meaningful.  All
of these are O(N^2) or worse and meant for small N only.
"""

import numpy as np


# ---------------------------------------------------------------------------
# direct Fourier / STFT quadrature


def dft_matrix(grid):
    """Dense matrix of forward_ft: spectrum = F @ samples."""
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    return grid.spacing * np.exp(-2j * np.pi * np.outer(xi, x))


def direct_forward_ft(f_values, grid):
    return dft_matrix(grid) @ f_values


def direct_inverse_ft(spec_values, grid):
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    back = grid.dual_spacing * np.exp(2j * np.pi * np.outer(x, xi))
    return back @ spec_values


def direct_stft(f_values, g_values, grid):
    """Triple-loop STFT oracle: V[i, k] = h * sum_y f(y) conj(g(y - x_i)) e^{-2pi i y xi_k}."""
    n = grid.points_per_axis
    rows = []
    for i in range(n):
        shifted = np.roll(g_values, i - n // 2)
        rows.append(direct_forward_ft(f_values * np.conj(shifted), grid))
    return np.array(rows)


def gather_stft(values, window, spacing):
    """The STFT kernel built from an index table of window translates.

    Row i is the centered transform (ifftshift, FFT, fftshift, times
    spacing) of values times conj(window)[(j - m_i) % N], m_i = i - N/2,
    stacked as one (N, N) array; the xi axis is ascending.  It forms the
    same products and runs the same FFTs as the library's strided
    kernel, so the two agree to the bit.
    """
    n = len(values)
    offsets = np.arange(n) - n // 2
    gather = (np.arange(n)[None, :] - offsets[:, None]) % n
    stack = values[None, :] * np.conj(window)[gather]
    out = np.fft.fft(np.fft.ifftshift(stack, axes=1), axis=1)
    return spacing * np.fft.fftshift(out, axes=1)


def gauss_stft_magnitude(x, xi):
    """|V_g g| for the L^2-normalized Gaussian g(t) = 2^{1/4} e^{-pi t^2}, d=1."""
    return np.exp(-np.pi * (x**2 + xi**2) / 2.0)


# ---------------------------------------------------------------------------
# symbol assembly


def summed_phase_bumps(xi, phases, bump):
    """sum_{k=-M..M} e^{i phases[k+M]} bump(xi - k), one bump at a time
    over every frequency: O(MN), with no use of the bumps' disjointness."""
    m = (len(phases) - 1) // 2
    row = np.zeros(len(xi), dtype=complex)
    for j, k in enumerate(range(-m, m + 1)):
        row += np.exp(1j * phases[j]) * bump(xi - k)
    return row


# ---------------------------------------------------------------------------
# direct quantization quadratures


def direct_kn_apply(sigma_values, f_values, grid):
    """(1/L) sum_k e^{2pi i x_j xi_k} sigma(x_j, xi_k) fhat(xi_k), by explicit sums."""
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    fhat = direct_forward_ft(f_values, grid)
    phase = np.exp(2j * np.pi * np.outer(x, xi))
    return grid.dual_spacing * np.einsum("jk,jk,k->j", phase, sigma_values, fhat)


def _fine_midpoint_rows(sigma_values, grid):
    """Band-limited evaluation of sigma(., xi_k) on the half-step x lattice.

    Returns an array of shape (2N, N): row m holds sigma(x_m^fine, xi_k)
    where x_m^fine = (m - N) h/2, m = 0..2N-1.
    """
    n = grid.points_per_axis
    h = grid.spacing
    x = grid.axis_points()
    omega = grid.axis_frequencies()
    fine_x = (np.arange(2 * n) - n) * (h / 2.0)
    analysis = h * np.exp(-2j * np.pi * np.outer(omega, x))
    synthesis = grid.dual_spacing * np.exp(2j * np.pi * np.outer(fine_x, omega))
    return synthesis @ (analysis @ sigma_values)


def direct_weyl_apply(sigma_values, f_values, grid):
    """Direct double-sum Weyl quadrature with wrapped-geodesic midpoints.

    L f(x_j) = h (1/L) sum_l sum_k e^{2pi i (x_j - y_l) xi_k}
               sigma((x_j + y_l)/2, xi_k) f(y_l),
    the midpoint read on the periodic half-step lattice and sigma extended
    to it by trigonometric interpolation.
    """
    n = grid.points_per_axis
    xi = grid.axis_frequencies()
    x = grid.axis_points()
    fine = _fine_midpoint_rows(sigma_values, grid)
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        mids = (j + np.arange(n)) % (2 * n)
        phases = np.exp(2j * np.pi * np.outer(x[j] - x, xi))
        out[j] = grid.spacing * grid.dual_spacing * np.einsum(
            "lk,lk,l->", phases, fine[mids], f_values
        )
    return out


def direct_u_multiplier(sigma_values, grid, sign):
    """The Weyl/KN intertwining multiplier by explicit double sums.

    Computes the 2-dim symbol FT (axis 0 spacing h, axis 1 spacing 1/L),
    multiplies by e^{sign * i pi omega u}, and inverts, all with dense
    quadrature matrices.  sign=+1 maps Weyl to KN.
    """
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    omega = grid.axis_frequencies()  # dual of the x axis
    u = grid.axis_points()  # dual of the xi axis
    fwd0 = grid.spacing * np.exp(-2j * np.pi * np.outer(omega, x))
    fwd1 = grid.dual_spacing * np.exp(-2j * np.pi * np.outer(u, xi))
    spec = fwd0 @ sigma_values @ fwd1.T
    spec = spec * np.exp(sign * 1j * np.pi * np.outer(omega, u))
    inv0 = grid.dual_spacing * np.exp(2j * np.pi * np.outer(x, omega))
    inv1 = grid.spacing * np.exp(2j * np.pi * np.outer(xi, u))
    return inv0 @ spec @ inv1.T


def rank_one_pairing(kernel_values, f_values, g_values, grid):
    """h^2 sum_{x,y} K(x,y) f(y) conj(g(x)) for d=1."""
    return grid.spacing**2 * np.einsum(
        "xy,y,x->", kernel_values, f_values, np.conj(g_values)
    )


# ---------------------------------------------------------------------------
# matrix norm oracles


def brute_force_norm_1(entries, domain_measure=1.0, codomain_measure=1.0):
    """Maximize ||Ax||_{l1(nu)} / ||x||_{l1(mu)} over signed coordinate vectors."""
    n = entries.shape[1]
    best = 0.0
    for j in range(n):
        for sign in (1.0, -1.0):
            x = np.zeros(n)
            x[j] = sign
            num = codomain_measure * np.abs(entries @ x).sum()
            den = domain_measure * np.abs(x).sum()
            best = max(best, num / den)
    return best


def brute_force_norm_inf(entries):
    """Maximize ||Ax||_inf / ||x||_inf over all sign vectors (real entries)."""
    assert np.isrealobj(entries)
    n = entries.shape[1]
    best = 0.0
    for bits in range(2**n):
        x = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])
        best = max(best, np.abs(entries @ x).max())
    return best


def jacobi_spectral_norm(entries, sweeps=60, tol=1e-14):
    """Largest singular value via one-sided Jacobi on the columns.

    Complex input is realified first: the 2n x 2n real representation
    [[Re, -Im], [Im, Re]] has the same singular values (doubled), so the
    largest one is unchanged.
    """
    a = np.asarray(entries)
    if np.iscomplexobj(a):
        re, im = a.real, a.imag
        a = np.block([[re, -im], [im, re]])
    a = a.astype(float).copy()
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci, cj = a[:, i], a[:, j]
                alpha = ci @ ci
                beta = cj @ cj
                gamma = ci @ cj
                off = max(off, abs(gamma) / max(np.sqrt(alpha * beta), 1e-300))
                if abs(gamma) < tol * np.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                a[:, i], a[:, j] = c * ci - s * cj, s * ci + c * cj
        if off < tol:
            break
    return float(np.sqrt((a * a).sum(axis=0).max()))


def ascent_norm_p(entries, p, n_starts=400, iters=3000, seed=1):
    """Multi-start projected ascent for the l^p -> l^p matrix norm, 1 < p < inf.

    For entrywise-nonnegative matrices the iteration is reliably global;
    in general this is a lower-bound search like any other.
    """
    a = np.asarray(entries, dtype=float)
    n = a.shape[1]
    q = p / (p - 1.0)

    def lp(v):
        return float((np.abs(v) ** p).sum() ** (1.0 / p))

    def polish(x):
        x = x / lp(x)
        prev = 0.0
        for _ in range(iters):
            y = a @ x
            val = lp(y)
            g = a.T @ (np.abs(y) ** (p - 1.0) * np.sign(y))
            x = np.abs(g) ** (q - 1.0) * np.sign(g)
            norm = lp(x)
            if norm == 0.0:
                break
            x = x / norm
            if abs(val - prev) < 1e-15:
                break
            prev = val
        return lp(a @ x)

    rng = np.random.default_rng(seed)
    best = polish(np.ones(n))
    for _ in range(n_starts):
        best = max(best, polish(rng.standard_normal(n)))
    return best
