"""Short-time Fourier transform and the norm zoo built on it.

The discrete STFT of f against a window g, both sampled on one grid, is

    V_g f(x_i, xi_k) = forward_ft( f . conj(translate(g, x_i)) )(xi_k)

evaluated for every lattice translate x_i and every dual-lattice
frequency xi_k.  The map is a tight frame: with quadrature measures h
(space) and 1/L (frequency),

    h (1/L) sum |V_g f|^2  =  ||f||_2^2 ||g||_2^2

holds exactly, which is what makes the p=q=2 modulation and amalgam
norms collapse to the L^2 norm for a unit-norm window.  stft returns
V_g f as a plain complex (N, N) array with axes (x, xi); its lattices
and cells are the grid's own (axis_points and axis_frequencies, h and
1/L).

Norms implemented here: lp_norm, sobolev_norm (Bessel multiplier then
lp_norm), modulation_norm (inner exponent p over x, outer q over xi),
amalgam_norm (inner exponent q over omega with weight <omega>^s, outer
p over y), and sjostrand_norm (the M^{infty,1} norm of a phase-space
symbol: sup over phase-space translates, L^1 over the dual variable).
The modulation and amalgam norms use the default Gaussian window and
the cells h and 1/L.  modulation_norms and amalgam_norms tabulate them
for a sequence of functions on one grid over lists of exponents, as a
(functions, ps, qs) array; the single-pair functions are one-function,
one-entry tables.

stft and the factored sjostrand_norm path share one kernel,
_translate_spectra: it multiplies f by a strided view of every window
translate (_translates, a view of a wrapped copy of the window, so no
index table or stack of translates is built) and transforms the
products with grid.ft_along.  The norm tables use _stft_magnitudes
instead, a generator that forms the same products already in FFT
order in a buffer it owns for the whole table and writes |V_g f| with
the fftshift folded in; each function's table is then one power_mean
per inner exponent on |V_g f| and one per outer exponent on the
stacked inner norms.  Both kernels are bit-identical to the
index-table form kept in tests/oracles.py.  The dense sjostrand_norm
path shares only _translates.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidValue, TooLarge, ZeroWindow
from .exponents import power_mean
from .grid import (
    SampledFunction,
    bessel_potential,
    bessel_weights,
    ft_along,
    require_same_grid,
)

_SJOSTRAND_DENSE_LIMIT = 256


def _gaussian(t):
    """The L^2-normalized Gaussian 2^(1/4) exp(-pi t^2) at the points t."""
    return 2.0**0.25 * np.exp(-np.pi * t**2)


def default_window(grid):
    """The L^2-normalized Gaussian 2^(1/4) exp(-pi t^2) on the grid."""
    return SampledFunction(grid, _gaussian(grid.axis_points()))


def _translates(window, shift):
    """Every lattice translate of window, as a strided view.

    Entry [i..., j...] (one i and one j per axis) is
    window[(j - i + shift) % N, ...].  The view reads a wrapped copy of
    window twice its size along each axis, so no index table or stack of
    translates is ever built.
    """
    n = len(window)
    before = -shift % n
    doubled = np.pad(window, (before, n - before), mode="wrap")
    return sliding_window_view(doubled, window.shape)[(slice(n, 0, -1),) * window.ndim]


def _translate_spectra(values, window, spacing):
    """Forward transforms along one periodic axis of values times the
    conjugate of every lattice translate of window, stacked along axis 0:
    row i is the transform against the translate by i - N/2 steps."""
    return ft_along(_translates(np.conj(window), len(values) // 2) * values, 1, spacing)


def _windowed_spectra(f, g):
    """V_g f as (x_axis_points, array), the complex array shaped (N, N)
    with axes (x, xi)."""
    grid = require_same_grid(f, g)
    if not np.any(g.values):
        raise ZeroWindow("window is identically zero")
    return grid.axis_points(), _translate_spectra(f.values, g.values, grid.spacing)


def stft(f, g):
    """Short-time Fourier transform V_g f on the full lattice: a complex
    (N, N) array with axes (x, xi), entry [i, k] at (axis_points()[i],
    axis_frequencies()[k]); its quadrature cells are h and 1/L."""
    return _windowed_spectra(f, g)[1]


def lp_norm(f, p):
    """Riemann-sum L^p norm: (h sum |f|^p)^(1/p), max |f| for p=inf."""
    return float(power_mean(np.abs(f.values), p, f.grid.spacing))


def sobolev_norm(f, p, s):
    """L^p_s norm: lp_norm of <D>^s f.

    The Bessel multiplier is <xi>^s = (1 + |xi|^2)^(s/2), matching the
    bracket convention used everywhere else in the package.
    """
    return lp_norm(bessel_potential(f, s), p)


def _stft_magnitudes(fs):
    """|V_g f| against the default window g, axes (x, xi), for each f of
    fs (a list on one grid) in turn.

    A generator that owns one complex and one real (N, N) array for the
    whole run and yields the real one, overwritten with each function's
    magnitudes, so a caller is done with an array before it asks for the
    next.  Each product is formed in FFT order (the translates starting
    at shift 0 times f rolled by N/2), and the fftshift is folded into
    the half of the magnitudes each spectrum half is written to.  The
    operands and operations are those of stft, so the values are
    |stft(f, g)| to the bit.
    """
    grid = fs[0].grid
    n = grid.points_per_axis
    half = n // 2
    translates = _translates(np.conj(_gaussian(grid.axis_points())), 0)
    spectra = np.empty((n, n), dtype=complex)
    mags = np.empty((n, n))
    for f in fs:
        np.multiply(translates, np.roll(f.values, -half), out=spectra)
        np.fft.fft(spectra, axis=1, out=spectra)
        spectra *= grid.spacing
        np.abs(spectra[:, half:], out=mags[:, :half])
        np.abs(spectra[:, :half], out=mags[:, half:])
        yield mags


def _norm_tables(fs, inners, inner_axis, outers, s=0.0):
    """Entry [k, j, i]: the L^outers[j] norm over the other axis of the
    L^inners[i] norms over inner_axis (0: x, cell h; 1: xi, cell 1/L) of
    |V_g fs[k]|, weighted by <xi>^s along xi.  Per function that is one
    reduction per inner exponent on |V_g f| and one per outer exponent
    on the stacked inner norms."""
    fs = list(fs)
    if not fs:
        raise InvalidValue("a norm table needs at least one function")
    grid = require_same_grid(*fs)
    cells = (grid.spacing, grid.dual_spacing)
    inner_cell, outer_cell = cells[inner_axis], cells[1 - inner_axis]
    weights = bessel_weights(grid, s)[None, :] if s != 0.0 else None
    tables = np.empty((len(fs), len(outers), len(inners)))
    for table, mags in zip(tables, _stft_magnitudes(fs)):
        if weights is not None:
            mags *= weights
        inner_norms = np.array([power_mean(mags, e, inner_cell, inner_axis) for e in inners])
        table[...] = [power_mean(inner_norms, e, outer_cell, 1) for e in outers]
    return tables


def modulation_norms(fs, ps, qs):
    """Modulation norms of a sequence of functions on one grid: entry
    [k, i, j] of the (len(fs), len(ps), len(qs)) array is
    modulation_norm(fs[k], ps[i], qs[j]), each function's entries from
    one |STFT| array."""
    return np.ascontiguousarray(_norm_tables(fs, ps, 0, qs).swapaxes(1, 2))


def amalgam_norms(fs, ps, qs, s=0.0):
    """Amalgam norms of a sequence of functions on one grid: entry
    [k, i, j] of the (len(fs), len(ps), len(qs)) array is
    amalgam_norm(fs[k], ps[i], qs[j], s), each function's entries from
    one |STFT| array."""
    if not np.isfinite(s):
        raise InvalidValue(f"weight order s must be finite, got {s!r}")
    return _norm_tables(fs, qs, 1, ps, s)


def modulation_norm(f, p, q):
    """Modulation norm: L^p over x inside, L^q over xi outside, against
    the default window.  Reported values depend on the window, as they
    must."""
    return float(modulation_norms([f], [p], [q])[0, 0, 0])


def amalgam_norm(f, p, q, s=0.0):
    """Wiener amalgam norm: weighted L^q over omega inside, L^p over y outside."""
    return float(amalgam_norms([f], [p], [q], s)[0, 0, 0])


def phase_space_window(grid):
    """L^2(R^2)-normalized Gaussian on the (x, xi) product lattice."""
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    return np.sqrt(2.0) * np.exp(-np.pi * (x[:, None] ** 2 + xi[None, :] ** 2))


def _sup_stft(values, window, spacing, weight):
    """max over lattice translates z of |V_window values(z, zeta)| weight(z),
    for every dual point zeta, on one periodic axis with the given step."""
    mags = np.abs(_translate_spectra(values, window, spacing))
    mags *= weight[:, None]
    return mags.max(axis=0)


def sjostrand_norm(symbol, s=0.0):
    """The (weighted) Sjostrand-class norm of a phase-space symbol.

    Computes the phase-space STFT V_Phi(sigma) over all lattice
    translates z, takes sup_z of |V| <z_xi>^s for each dual point zeta,
    and integrates the result over zeta (L^1, cell measure 1/N).

    The window is the phase-space Gaussian Phi = phi1 (x) phi2.  For a
    symbol built from factors, sigma = a (x) b, the transform factors
    too, V_Phi(sigma) = V_phi1(a) (x) V_phi2(b), and the norm is the
    product of two one-dimensional sums of sup-STFTs, O(N^2 log N).
    Every other symbol takes the dense O(N^4 log N) path, limited to
    N <= 256.  The dense path is the reference path: every generator
    builds rank-one symbols, so only tests and hand-made dense symbols
    reach it, and it agrees with the factored one to roundoff.
    """
    if not np.isfinite(s):
        raise InvalidValue(f"weight order s must be finite, got {s!r}")
    grid = symbol.grid
    n = grid.points_per_axis
    # dual cells: axis-0 dual steps 1/L, axis-1 dual steps L/N = h; the
    # zeta quadrature measure is their product, 1/N.
    zeta_cell = grid.dual_spacing * grid.spacing

    zweight2 = bessel_weights(grid, s)  # <z_xi>^s on the z lattice, axis 1

    if symbol.factors is not None:
        a, b = symbol.factors
        first = _sup_stft(a, _gaussian(grid.axis_points()), grid.spacing, np.ones(n))
        second = _sup_stft(b, _gaussian(grid.axis_frequencies()), grid.dual_spacing, zweight2)
        return float(zeta_cell * first.sum() * second.sum())

    if n > _SJOSTRAND_DENSE_LIMIT:
        raise TooLarge(
            f"dense sjostrand_norm is limited to N <= {_SJOSTRAND_DENSE_LIMIT}; "
            "symbols built from factors (PhaseSpaceSymbol.product) use the "
            "factored path"
        )
    sigma = symbol.values
    # translates[i1, i2] is conj(Phi) shifted by (z1, z2) = (i1 - N/2, i2 - N/2) steps
    translates = _translates(np.conj(phase_space_window(grid)), n // 2)
    best = np.zeros((n, n))
    for i1 in range(n):
        # all axis-1 shifts at once: stack[i2, a, b] = conj(Phi)[a - z1, b - z2] sigma[a, b]
        stack = translates[i1] * sigma[None, :, :]
        spec = ft_along(ft_along(stack, 1, grid.spacing), 2, grid.dual_spacing)
        weighted = np.abs(spec) * zweight2[:, None, None]
        np.maximum(best, weighted.max(axis=0), out=best)
    return float(zeta_cell * best.sum())
