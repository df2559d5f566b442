"""Independent reference implementations used as test oracles.

Everything here is written against the definitions directly, with plain
loops or einsums and no calls into modop's transform internals, so that
agreement between a library routine and its oracle is meaningful.  All
of these are O(N^2) or worse and meant for small N only.  The one
exception is the section of centered compositions, which calls
grid.ft_along and ift_along on purpose: it keeps the shift round trips
that quantize's FFT-order transforms drop, to check that dropping them
moves no bit.
"""

import numpy as np

from modop.grid import ft_along, ift_along


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


def direct_sjostrand(sigma_values, grid, s=0.0):
    """The weighted Sjostrand norm by brute force: sum over zeta of
    max over z of |V_Phi sigma(z, zeta)| <z_xi>^s, times 1/N.

    Phi = phi1 (x) phi2 with phi1 = 2^{1/4} e^{-pi x^2} on the x axis and
    phi2 the same Gaussian on the xi axis.  Each factor's translates are
    gathered with an index table (row i shifted by i - N/2 steps), each
    axis is transformed by its DFT matrix (cells h and 1/L, duals the
    frequencies and the points), and one einsum forms every V[z1, z2,
    zeta1, zeta2].  O(N^4) memory: small N only.
    """
    n = grid.points_per_axis
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    gather = (np.arange(n)[None, :] - (np.arange(n) - n // 2)[:, None]) % n
    t1 = np.conj(2.0**0.25 * np.exp(-np.pi * x**2))[gather]
    t2 = np.conj(2.0**0.25 * np.exp(-np.pi * xi**2))[gather]
    f1 = grid.spacing * np.exp(-2j * np.pi * np.outer(xi, x))
    f2 = grid.dual_spacing * np.exp(-2j * np.pi * np.outer(x, xi))
    v = np.einsum("ia,jb,ka,mb,ab->ijkm", t1, t2, f1, f2, sigma_values, optimize=True)
    weight = (1.0 + xi**2) ** (s / 2.0)
    best = (np.abs(v) * weight[None, :, None, None]).max(axis=(0, 1))
    return float(best.sum() / n)


def kernel_diagonals(kernel_values):
    """Row t_pos is the kernel's diagonal x - y = t h, t = t_pos - N/2:
    entry u is kernel_values[u, (u - t) % N].  One loop step per
    diagonal."""
    n = len(kernel_values)
    u = np.arange(n)
    return np.array([kernel_values[u, (u - t) % n] for t in np.arange(n) - n // 2])


def gauss_stft_magnitude(x, xi):
    """|V_g g| for the L^2-normalized Gaussian g(t) = 2^{1/4} e^{-pi t^2}, d=1."""
    return np.exp(-np.pi * (x**2 + xi**2) / 2.0)


# ---------------------------------------------------------------------------
# centered compositions


def centered_u_multiplier(values, grid, phase):
    """The Weyl/KN multiplier as four centered transforms: ft_along over
    x (cell h) then xi (cell 1/L), times phase (centered on both axes),
    then ift_along over x then xi."""
    h, dual = grid.spacing, grid.dual_spacing
    spectrum = ft_along(ft_along(values, 0, h), 1, dual) * phase
    return ift_along(ift_along(spectrum, 0, h), 1, dual)


def centered_half_shift(rows, spacing, phase):
    """Each row's centered transform times its row of phase (centered
    along the row), transformed back: a spectral shift of the rows."""
    return ift_along(ft_along(rows, 1, spacing) * phase, 1, spacing)


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


def _round_robin(n):
    """The n - 1 rounds of the round-robin ordering for even n: each round
    is n/2 disjoint column pairs, and the rounds together hold every pair
    once.  Column 0 stays put and the rest rotate one place per round
    (Brent and Luk, 1985)."""
    order = np.arange(n)
    rounds = []
    for _ in range(n - 1):
        rounds.append((order[: n // 2], order[n // 2 :][::-1]))
        order = np.concatenate((order[:1], np.roll(order[1:], 1)))
    return rounds


def jacobi_spectral_norm(entries, sweeps=60, tol=1e-14):
    """Largest singular value via one-sided Jacobi on the columns.

    Complex input is realified first: the 2n x 2n real representation
    [[Re, -Im], [Im, Re]] has the same singular values (doubled), so the
    largest one is unchanged.  An odd column count gets a zero column.
    Each numpy step rotates the n/2 disjoint pairs of one round-robin
    round; a pair already orthogonal to tol is left as it is, and the
    sweeps stop once every pair of a sweep was.
    """
    a = np.asarray(entries)
    if np.iscomplexobj(a):
        re, im = a.real, a.imag
        a = np.block([[re, -im], [im, re]])
    # row k of cols is column k of the matrix
    cols = a.astype(float).T.copy()
    if len(cols) % 2:
        cols = np.vstack([cols, np.zeros((1, cols.shape[1]))])
    rounds = _round_robin(len(cols))
    for _ in range(sweeps):
        off = 0.0
        for i, j in rounds:
            ci, cj = cols[i], cols[j]
            alpha = (ci * ci).sum(axis=1)
            beta = (cj * cj).sum(axis=1)
            gamma = (ci * cj).sum(axis=1)
            scale = np.sqrt(alpha * beta)
            off = max(off, (np.abs(gamma) / np.maximum(scale, 1e-300)).max())
            rotate = (np.abs(gamma) >= tol * scale) & (gamma != 0.0)
            # t = sign(zeta) / (|zeta| + hypot(1, zeta)), zeta = diff / (2 gamma),
            # sign(0) = 1, written so that a huge zeta cannot overflow
            diff = beta - alpha
            sign = np.where(diff == 0.0, 1.0, np.sign(diff) * np.sign(gamma))
            t = sign * np.divide(
                2.0 * np.abs(gamma),
                np.abs(diff) + np.hypot(2.0 * gamma, diff),
                out=np.zeros_like(gamma),
                where=rotate,
            )
            c = 1.0 / np.hypot(1.0, t)
            s = c * t
            cols[i], cols[j] = c[:, None] * ci - s[:, None] * cj, s[:, None] * ci + c[:, None] * cj
        if off < tol:
            break
    return float(np.sqrt((cols * cols).sum(axis=1).max()))


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
