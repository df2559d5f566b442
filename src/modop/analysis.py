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
one-entry tables.  Every row is computed on its own, so a table over
more functions changes no row: an embedding task makes one amalgam_norms
pass over its test functions and every symbol's outputs on them.

There is one STFT kernel, _spectra, on a strided view of every window
translate (_translates, so no index table or stack of translates is
built).  It yields V_g of each array in turn on the centered lattice
(x_i, xi_k), a block of translates at a time with the array's leading
axes kept, from buffers it owns for the whole run.  stft and the norm
tables take a function's N translates as one block: stft returns it
with no copy, and the tables take |V_g f| in place, then one power_mean
per inner exponent and one per outer exponent on the stacked inner
norms.  _norm_tables gives each CPU the process may use one contiguous
run of functions and its own kernel and thread (the caller's first), so
a table's values do not depend on the CPU count.  _sup_stft takes the
sup over translates for both sjostrand_norm paths: it folds the
weighted magnitudes of fixed-size blocks into one running maximum; the
dense path runs it along xi of each _spectra block of sigma along x, one
x translate per block.  tests/oracles.direct_sjostrand checks both paths
by brute force.  At power-of-two N the kernel is bit-identical to the
index-table form of tests/oracles.py and to the centered ft_along form
it replaced; at other even N they differ at roundoff.
"""

import contextvars
import os
import threading

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
# complex products per _sup_stft block (1 MiB); larger blocks timed no faster
_BLOCK_ENTRIES = 2**16


def _gaussian(t):
    """The L^2-normalized Gaussian 2^(1/4) exp(-pi t^2) at the points t."""
    return 2.0**0.25 * np.exp(-np.pi * t**2)


def default_window(grid):
    """The L^2-normalized Gaussian 2^(1/4) exp(-pi t^2) on the grid."""
    return SampledFunction(grid, _gaussian(grid.axis_points()))


def _translates(window):
    """Every lattice translate of the one-axis window, as a strided
    (N, N) view: entry [i, j] is window[(j - i) % N].  The view reads a
    wrapped copy of window twice its length, so no index table or stack
    of translates is ever built."""
    n = len(window)
    return sliding_window_view(np.concatenate((window, window)), n)[n:0:-1]


def _windowed_spectra(f, g):
    """V_g f as (x_axis_points, array), the complex array shaped (N, N)
    with axes (x, xi)."""
    grid = require_same_grid(f, g)
    if not np.any(g.values):
        raise ZeroWindow("window is identically zero")
    _, spectra = next(_spectra([f.values], g.values, grid.spacing, grid.points_per_axis))
    return grid.axis_points(), spectra


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

    The multiplier <xi>^s = (1 + |xi|^2)^(s/2) is bessel_weights', as in
    the amalgam and Sjostrand norms; s_seminorms weights by (1 + |xi|).
    """
    return lp_norm(bessel_potential(f, s), p)


def _spectra(arrays, window, spacing, rows):
    """V_window of each array of arrays (one shape, last axis periodic
    with cell spacing) in turn, rows translates at a time: yields
    (start, block), block the translates start to start + rows (fewer at
    the end), axes (..., z, zeta) on the centered lattice.  The generator
    owns the block and the array rolled by N/2 and times S = diag((-1)^j)
    for the whole run and yields views of the block, so a caller is done
    with one before it asks for the next.  A block is the translates at
    shift 0 times that array, transformed in place and scaled by spacing:
    for even N, fft(S z) is fft(z) shifted by N/2 along zeta, so each row
    is the centered transform of a translate at shift N/2 times the array.
    """
    n = len(window)
    half = n // 2
    translates = _translates(np.conj(window))
    rolled = np.empty(arrays[0].shape, dtype=complex)
    buffer = np.empty(rolled.shape[:-1] + (min(rows, n), n), dtype=complex)
    for values in arrays:
        rolled[..., :half] = values[..., half:]
        rolled[..., half:] = values[..., :half]
        rolled[..., 1::2] *= -1
        for start in range(0, n, rows):
            block = buffer[..., :min(rows, n - start), :]
            np.multiply(translates[start:start + rows], rolled[..., None, :], out=block)
            np.fft.fft(block, axis=-1, out=block)
            block *= spacing
            yield start, block


def _usable_cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(work, chunks):
    """work(chunk) for every chunk: the first in the calling thread, each
    other on a thread of its own inside a copy of the caller's context
    (np.errstate is a context variable), all joined before returning.  A
    worker's exception is re-raised here; the caller's own comes first."""
    errors = []

    def run(chunk):
        try:
            work(chunk)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, chunk))
        for chunk in chunks[1:]
    ]
    for thread in threads:
        thread.start()
    try:
        work(chunks[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _norm_tables(fs, inners, inner_axis, outers, s=0.0):
    """Entry [k, j, i]: the L^outers[j] norm over the other axis of the
    L^inners[i] norms over inner_axis (0: x, cell h; 1: xi, cell 1/L) of
    |V_g fs[k]|, weighted by <xi>^s along xi.  Per function that is one
    reduction per inner exponent on _spectra's centered block, in place
    as |V_g f|, and one per outer exponent on the stacked inner norms.

    The functions are split into one contiguous run per usable CPU (at
    most one per function); each run has its own _spectra kernel and
    magnitude array and fills its own rows, the first in the calling
    thread.  Every row is
    computed by one thread with the same operations, so the tables do
    not depend on the CPU count."""
    fs = list(fs)
    ps, qs = (inners, outers) if inner_axis == 0 else (outers, inners)  # over x, over xi
    for name, entries in (("functions", fs), ("ps", ps), ("qs", qs)):
        if len(entries) == 0:
            raise InvalidValue(f"a norm table needs at least one entry in {name}")
    grid = require_same_grid(*fs)
    cells = (grid.spacing, grid.dual_spacing)
    inner_cell, outer_cell = cells[inner_axis], cells[1 - inner_axis]
    weights = bessel_weights(grid, s) if s != 0.0 else None
    window = _gaussian(grid.axis_points())
    tables = np.empty((len(fs), len(outers), len(inners)))

    def fill(rows):
        mags = np.empty((grid.points_per_axis,) * 2)
        arrays = [fs[k].values for k in rows]
        for k, (_, spectra) in zip(rows, _spectra(arrays, window, grid.spacing, len(window))):
            np.abs(spectra, out=mags)
            if weights is not None:
                mags *= weights
            inner_norms = np.array([power_mean(mags, e, inner_cell, inner_axis) for e in inners])
            tables[k] = [power_mean(inner_norms, e, outer_cell, 1) for e in outers]

    count = min(_usable_cpus(), len(fs))
    bounds = [len(fs) * c // count for c in range(count + 1)]
    _run_chunks(fill, [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])])
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
    return _norm_tables(fs, qs, 1, ps, s)


def modulation_norm(f, p, q):
    """Modulation norm: L^p over x inside, L^q over xi outside, against
    the default window.  Reported values depend on the window, as they
    must."""
    return float(modulation_norms([f], [p], [q])[0, 0, 0])


def amalgam_norm(f, p, q, s=0.0):
    """Wiener amalgam norm: weighted L^q over omega inside, L^p over y outside."""
    return float(amalgam_norms([f], [p], [q], s)[0, 0, 0])


def _sup_stft(values, window, spacing, weight):
    """max over lattice translates z of |V_window values(z, zeta)| weight(z)
    for each zeta of the last (periodic) axis, cell spacing, leading axes
    kept, on the centered lattice.  The magnitudes of _spectra's blocks (one
    real buffer) fold into one exact running maximum, so no block size moves a bit."""
    best, mags = np.zeros(values.shape), None
    for start, block in _spectra([values], window, spacing, max(1, _BLOCK_ENTRIES // values.size)):
        mags = np.abs(block, out=None if mags is None else mags[..., :block.shape[-2], :])
        mags *= weight[start:start + mags.shape[-2], None]
        np.maximum(best, mags.max(axis=-2), out=best)
    return best


def _factor_sup(values, window, spacing, weight):
    """_sup_stft of a product's factor, or for None, a factor identically 1
    with the same |V| at every translate, |ft of conj(window)| max(weight)."""
    if values is None:
        return np.abs(ft_along(np.conj(window), 0, spacing)) * weight.max()
    return _sup_stft(values, window, spacing, weight)


def sjostrand_norm(symbol, s=0.0):
    """The (weighted) Sjostrand-class norm of a phase-space symbol.

    Computes the phase-space STFT V_Phi(sigma) over all lattice
    translates z, takes sup_z of |V| <z_xi>^s for each dual point zeta,
    and integrates the result over zeta (L^1, cell measure 1/N).

    The window is the phase-space Gaussian Phi = phi1 (x) phi2, so both
    paths run the one-axis sup-STFT kernel _sup_stft.  For a symbol
    built from factors, sigma = a (x) b, the transform factors too,
    V_Phi(sigma) = V_phi1(a) (x) V_phi2(b), and the norm is the product
    of two one-dimensional sums of sup-STFTs, O(N^2 log N), or O(N log N)
    for a factor that _only marks identically 1 (_factor_sup).  Any other
    symbol takes the dense O(N^4 log N) path, limited by its time to
    N <= 256: for each x translate z1, _spectra transforms
    conj(phi1)(. - z1) sigma along x, and the sup over z2 is _sup_stft.
    The dense path is the reference path: every generator builds
    rank-one symbols, so only tests and hand-made dense symbols reach
    it, and it agrees with the factored one to roundoff.
    """
    grid = symbol.grid
    n = grid.points_per_axis
    # dual cells: axis-0 dual steps 1/L, axis-1 dual steps L/N = h; the
    # zeta quadrature measure is their product, 1/N.
    zeta_cell = grid.dual_spacing * grid.spacing

    zweight2 = bessel_weights(grid, s)  # <z_xi>^s on the z lattice, axis 1
    window1 = _gaussian(grid.axis_points())
    window2 = _gaussian(grid.axis_frequencies())

    if symbol.factors is not None:
        a, b = symbol.factors
        first = _factor_sup(None if symbol._only == "xi" else a, window1, grid.spacing, np.ones(n))
        second = _factor_sup(None if symbol._only == "x" else b, window2, grid.dual_spacing, zweight2)
        return float(zeta_cell * first.sum() * second.sum())

    if n > _SJOSTRAND_DENSE_LIMIT:
        raise TooLarge(
            f"dense sjostrand_norm is limited to N <= {_SJOSTRAND_DENSE_LIMIT}; "
            "symbols built from factors (PhaseSpaceSymbol.product) use the "
            "factored path"
        )
    best = np.zeros((n, n))
    # block i1: conj(phi1) shifted by z1 = i1 - N/2 steps times sigma along x, axes (xi, 1, omega)
    for _, block in _spectra([symbol.values.T], window1, grid.spacing, 1):
        np.maximum(best, _sup_stft(block[:, 0].T, window2, grid.dual_spacing, zweight2), out=best)
    return float(zeta_cell * best.sum())
