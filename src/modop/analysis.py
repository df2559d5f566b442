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

stft is one grid.ft_along of f times a strided view of every window
translate (_translates, a view of a wrapped copy of the window, so no
index table or stack of translates is built).  Both sjostrand_norm
paths run _sup_stft, which streams the same products through ft_along
in fixed-size blocks of translates and keeps one running maximum of
the weighted magnitudes; the dense path runs it along xi, over leading
axis x, once per x translate, and tests/oracles.direct_sjostrand checks
both paths by brute force.  The norm tables use _stft_magnitudes, a
generator that forms the same products in FFT order in buffers it owns
for the whole table and yields |V_g f| left in FFT order along xi (the
Bessel weights are ifftshifted to match); a function's table is one
power_mean per inner exponent on |V_g f| and one per outer exponent on
the stacked inner norms.  _norm_tables gives each CPU the process may
use one contiguous run of functions and its own kernel and thread (the
caller's first), so a table's values do not depend on the CPU count.
Every kernel is bit-identical to the index-table form kept in
tests/oracles.py, the magnitude kernel up to the ifftshift along xi.
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


def _translates(window, shift):
    """Every lattice translate of the one-axis window, as a strided
    (N, N) view: entry [i, j] is window[(j - i + shift) % N].  The view
    reads a wrapped copy of window twice its length, so no index table
    or stack of translates is ever built."""
    n = len(window)
    before = -shift % n
    doubled = np.pad(window, (before, n - before), mode="wrap")
    return sliding_window_view(doubled, n)[n:0:-1]


def _windowed_spectra(f, g):
    """V_g f as (x_axis_points, array), the complex array shaped (N, N)
    with axes (x, xi)."""
    grid = require_same_grid(f, g)
    if not np.any(g.values):
        raise ZeroWindow("window is identically zero")
    translates = _translates(np.conj(g.values), grid.points_per_axis // 2)
    return grid.axis_points(), ft_along(translates * f.values, -1, grid.spacing)


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
    """|V_g f| against the default window g, axes (x, xi) with xi in FFT
    order (frequency 0 first), for each f of fs (a list on one grid) in
    turn.

    A generator that owns one complex vector and one complex and one
    real (N, N) array for the whole run and yields the real one,
    overwritten with each function's magnitudes, so a caller is done
    with an array before it asks for the next.  Each product is formed
    in FFT order (the translates starting at shift 0 times f rolled by
    N/2, the roll two slice copies into the owned vector) and its
    spectrum's magnitudes are taken in one pass, left in FFT order.
    The operands and operations are those of stft, so the values are
    the ifftshift of |stft(f, g)| along xi, to the bit.
    """
    grid = fs[0].grid
    n = grid.points_per_axis
    half = n // 2
    translates = _translates(np.conj(_gaussian(grid.axis_points())), 0)
    rolled = np.empty(n, dtype=complex)
    spectra = np.empty((n, n), dtype=complex)
    mags = np.empty((n, n))
    for f in fs:
        rolled[:half] = f.values[half:]
        rolled[half:] = f.values[:half]
        np.multiply(translates, rolled, out=spectra)
        np.fft.fft(spectra, axis=1, out=spectra)
        spectra *= grid.spacing
        np.abs(spectra, out=mags)
        yield mags


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
    reduction per inner exponent on |V_g f| and one per outer exponent
    on the stacked inner norms.

    The functions are split into one contiguous run per usable CPU (at
    most one per function); each run has its own magnitude kernel and
    fills its own rows, the first in the calling thread.  Every row is
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
    # the magnitudes come in FFT order along xi, so the weights do too
    weights = np.fft.ifftshift(bessel_weights(grid, s)) if s != 0.0 else None
    tables = np.empty((len(fs), len(outers), len(inners)))

    def fill(rows):
        for k, mags in zip(rows, _stft_magnitudes([fs[k] for k in rows])):
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
    """max over lattice translates z of |V_window values(z, zeta)| weight(z),
    for every dual point zeta of the last (periodic) axis, with the given
    step; leading axes of values are kept.  The translates go through in
    blocks of at most _BLOCK_ENTRIES products folded into one running
    maximum, which is exact, so the block size moves no bit."""
    n = values.shape[-1]
    translates = _translates(np.conj(window), n // 2)
    rows = max(1, _BLOCK_ENTRIES // values.size)
    best = np.zeros(values.shape)
    for start in range(0, n, rows):
        mags = np.abs(ft_along(translates[start:start + rows] * values[..., None, :], -1, spacing))
        mags *= weight[start:start + rows, None]
        np.maximum(best, mags.max(axis=-2), out=best)
    return best


def sjostrand_norm(symbol, s=0.0):
    """The (weighted) Sjostrand-class norm of a phase-space symbol.

    Computes the phase-space STFT V_Phi(sigma) over all lattice
    translates z, takes sup_z of |V| <z_xi>^s for each dual point zeta,
    and integrates the result over zeta (L^1, cell measure 1/N).

    The window is the phase-space Gaussian Phi = phi1 (x) phi2, so both
    paths run the one-axis sup-STFT kernel _sup_stft.  For a symbol
    built from factors, sigma = a (x) b, the transform factors too,
    V_Phi(sigma) = V_phi1(a) (x) V_phi2(b), and the norm is the product
    of two one-dimensional sums of sup-STFTs, O(N^2 log N).  Any other
    symbol takes the dense O(N^4 log N) path, which its time, not its
    memory, limits to N <= 256: for each x translate z1 it transforms
    conj(phi1)(. - z1) sigma along x, and the sup over z2 at that z1 is
    _sup_stft of the result along xi.
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
        first = _sup_stft(a, window1, grid.spacing, np.ones(n))
        second = _sup_stft(b, window2, grid.dual_spacing, zweight2)
        return float(zeta_cell * first.sum() * second.sum())

    if n > _SJOSTRAND_DENSE_LIMIT:
        raise TooLarge(
            f"dense sjostrand_norm is limited to N <= {_SJOSTRAND_DENSE_LIMIT}; "
            "symbols built from factors (PhaseSpaceSymbol.product) use the "
            "factored path"
        )
    best = np.zeros((n, n))
    # row i1 of the translates is conj(phi1) shifted by z1 = i1 - N/2 steps
    for translate1 in _translates(np.conj(window1), n // 2):
        partial = ft_along(translate1[:, None] * symbol.values, 0, grid.spacing)
        np.maximum(best, _sup_stft(partial, window2, grid.dual_spacing, zweight2), out=best)
    return float(zeta_cell * best.sum())
