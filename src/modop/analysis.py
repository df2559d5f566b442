"""Short-time Fourier transform and the norm zoo built on it.

The discrete STFT of f against a window g, both sampled on one grid, is

    V_g f(x_i, xi_k) = forward_ft( f . conj(translate(g, x_i)) )(xi_k)

evaluated for every lattice translate x_i (optionally strided) and
every dual-lattice frequency xi_k.  On the full lattice this map is a
tight frame: with quadrature measures h (space) and 1/L (frequency),

    h (1/L) sum |V_g f|^2  =  ||f||_2^2 ||g||_2^2

holds exactly, which is what makes the p=q=2 modulation and amalgam
norms collapse to the L^2 norm for a unit-norm window.

Norms implemented here: lp_norm, sobolev_norm (Bessel multiplier then
lp_norm), modulation_norm (inner exponent p over x, outer q over xi,
weight <x>^s1 <xi>^s2), amalgam_norm (inner exponent q over omega with
weight <omega>^s, outer p over y), and sjostrand_norm (the M^{infty,1}
norm of a phase-space symbol: sup over phase-space translates, L^1 over
the dual variable).
"""

from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, ZeroWindow
from .exponents import power_mean
from .grid import (
    SampledFunction,
    bessel_weights,
    ft_along,
    require_same_grid,
)

_SJOSTRAND_DENSE_LIMIT = 256


@dataclass(frozen=True, eq=False)
class Weight:
    """The polynomial weight nu_{s1,s2}(x, xi) = <x>^s1 <xi>^s2."""

    s1: float = 0.0
    s2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s1", float(self.s1))
        object.__setattr__(self, "s2", float(self.s2))

    def on_array(self, tfa, grid):
        """Evaluate on the (x, xi) lattice of a TimeFrequencyArray on grid."""
        wx = (1.0 + np.square(tfa.x_axis_points)) ** (self.s1 / 2.0)
        return wx[:, None] * bessel_weights(grid, self.s2)[None, :]


class TimeFrequencyArray:
    """STFT values on an (x, xi) product lattice with quadrature data.

    values has shape (x points, N); the x lattice has step h*stride and
    the xi lattice is the grid's dual lattice.
    """

    __slots__ = ("x_axis_points", "xi_axis_points", "x_step", "xi_step", "values")

    def __init__(self, x_axis_points, xi_axis_points, values):
        if not np.all(np.isfinite(values)):
            raise ValueError("time-frequency values must be finite")
        expected = (len(x_axis_points), len(xi_axis_points))
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        object.__setattr__(self, "x_axis_points", np.asarray(x_axis_points, dtype=float))
        object.__setattr__(self, "xi_axis_points", np.asarray(xi_axis_points, dtype=float))
        object.__setattr__(self, "x_step", float(x_axis_points[1] - x_axis_points[0]))
        object.__setattr__(self, "xi_step", float(xi_axis_points[1] - xi_axis_points[0]))
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("TimeFrequencyArray is immutable")

    @property
    def x_cell(self):
        return self.x_step

    @property
    def xi_cell(self):
        return self.xi_step

    @property
    def cell(self):
        return self.x_cell * self.xi_cell


def default_window(grid):
    """The L^2-normalized Gaussian 2^(1/4) exp(-pi t^2) on the grid."""
    return SampledFunction(grid, 2.0**0.25 * np.exp(-np.pi * grid.axis_points() ** 2))


def _check_window(g):
    if not np.any(g.values):
        raise ZeroWindow("window is identically zero")


def _translate_gather(n, stride=1):
    """Index table of the lattice translates of an N-point periodic axis.

    Row i maps sample j to (j - m_i) % N for the translation offsets
    m_i = i * stride - N/2, so window[table] stacks every translate.
    """
    offsets = np.arange(n // stride) * stride - n // 2
    return (np.arange(n)[None, :] - offsets[:, None]) % n


def _translate_spectra(values, window, spacing, stride=1):
    """Forward transforms along one periodic axis of values times every
    stride-th lattice translate of window, stacked along axis 0."""
    stack = values[None, :] * window[_translate_gather(len(values), stride)]
    return ft_along(stack, 1, spacing)


def _windowed_spectra(f, g, stride, conjugate_window):
    """Stack of forward transforms of f times (conjugated) window translates.

    Returns (x_axis_points, array) with the array shaped (x count, N)
    over the strided translation lattice.
    """
    grid = require_same_grid(f, g)
    _check_window(g)
    stride = int(stride)
    n = grid.points_per_axis
    if stride < 1 or n % stride != 0:
        raise ValueError(f"stride must be a positive divisor of {n}, got {stride}")
    window = np.conj(g.values) if conjugate_window else g.values
    return grid.axis_points()[::stride], _translate_spectra(f.values, window, grid.spacing, stride)


def stft(f, g, stride=1):
    """Short-time Fourier transform V_g f on the (strided) lattice."""
    grid = require_same_grid(f, g)
    x_axis, spectra = _windowed_spectra(f, g, stride, conjugate_window=True)
    return TimeFrequencyArray(x_axis, grid.axis_frequencies(), spectra)


def lp_norm(f, p):
    """Riemann-sum L^p norm: (h sum |f|^p)^(1/p), max |f| for p=inf."""
    return float(power_mean(np.abs(f.values), p, f.grid.cell))


def sobolev_norm(f, p, s):
    """L^p_s norm: lp_norm of <D>^s f.

    The Bessel multiplier is <xi>^s = (1 + |xi|^2)^(s/2), matching the
    bracket convention used everywhere else in the package.
    """
    from .grid import bessel_potential

    return lp_norm(bessel_potential(f, s), p)


def _mixed_norms(mags, inner, inner_cell, inner_axis, outers, outer_cell):
    """For each exponent in outers, the L^outer norm over the other axis
    of the L^inner norms over inner_axis: the reduction half of
    modulation_norm and amalgam_norm, for callers that reuse one |STFT|
    array across exponent pairs.  The inner reduction is done once."""
    inner_norms = power_mean(mags, inner, inner_cell, axis=inner_axis)
    return [float(power_mean(inner_norms, outer, outer_cell)) for outer in outers]


def modulation_norm(f, p, q, weight=None, window=None, stride=1):
    """Modulation norm: L^p over x inside, L^q over xi outside.

    weight defaults to nu_{0,0}; window defaults to the normalized
    Gaussian.  Reported values depend on the window, as they must.
    """
    if window is None:
        window = default_window(f.grid)
    tfa = stft(f, window, stride)
    mags = np.abs(tfa.values)
    if weight is not None and (weight.s1 != 0.0 or weight.s2 != 0.0):
        mags = mags * weight.on_array(tfa, f.grid)
    return _mixed_norms(mags, p, tfa.x_cell, 0, [q], tfa.xi_cell)[0]


def amalgam_norm(f, p, q, s=0.0, window=None, stride=1):
    """Wiener amalgam norm: weighted L^q over omega inside, L^p over y outside."""
    if window is None:
        window = default_window(f.grid)
    grid = require_same_grid(f, window)
    x_axis, spectra = _windowed_spectra(f, window, stride, conjugate_window=False)
    tfa = TimeFrequencyArray(x_axis, grid.axis_frequencies(), spectra)
    mags = np.abs(tfa.values)
    if s != 0.0:
        mags = mags * bessel_weights(grid, s)[None, :]
    return _mixed_norms(mags, q, tfa.xi_cell, 1, [p], tfa.x_cell)[0]


def phase_space_window(grid):
    """L^2(R^2)-normalized Gaussian on the (x, xi) product lattice."""
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    return np.sqrt(2.0) * np.exp(-np.pi * (x[:, None] ** 2 + xi[None, :] ** 2))


def _sup_stft(values, window, spacing, weight):
    """max over lattice translates z of |V_window values(z, zeta)| weight(z),
    for every dual point zeta, on one periodic axis with the given step."""
    spectra = _translate_spectra(values, np.conj(window), spacing)
    return (np.abs(spectra) * weight[:, None]).max(axis=0)


def sjostrand_norm(symbol, s=0.0, window=None):
    """The (weighted) Sjostrand-class norm of a phase-space symbol.

    Computes the phase-space STFT V_Phi(sigma) over all lattice
    translates z, takes sup_z of |V| <z_xi>^s for each dual point zeta,
    and integrates the result over zeta (L^1, cell measure 1/N).

    For a symbol built from factors, sigma = a (x) b, under the default
    window Phi = phi1 (x) phi2 the transform factors too,
    V_Phi(sigma) = V_phi1(a) (x) V_phi2(b), and the norm is the product
    of two one-dimensional sums of sup-STFTs, O(N^2 log N).  Every other
    symbol, and any explicit window, takes the dense O(N^4 log N) path,
    limited to N <= 256; it agrees with the factored one to roundoff.
    """
    grid = symbol.grid
    n = grid.points_per_axis
    # dual cells: axis-0 dual steps 1/L, axis-1 dual steps L/N = h; the
    # zeta quadrature measure is their product, 1/N.
    zeta_cell = grid.dual_spacing * grid.spacing

    zweight2 = bessel_weights(grid, s)  # <z_xi>^s on the z lattice, axis 1

    if window is None and symbol.factors is not None:
        a, b = symbol.factors
        x = grid.axis_points()
        xi = grid.axis_frequencies()
        first = _sup_stft(a, 2.0**0.25 * np.exp(-np.pi * x**2), grid.spacing, np.ones(n))
        second = _sup_stft(b, 2.0**0.25 * np.exp(-np.pi * xi**2), grid.dual_spacing, zweight2)
        return float(zeta_cell * first.sum() * second.sum())

    if n > _SJOSTRAND_DENSE_LIMIT:
        raise TooLarge(
            f"dense sjostrand_norm is limited to N <= {_SJOSTRAND_DENSE_LIMIT}; "
            "symbols built from factors (PhaseSpaceSymbol.product) with the "
            "default window use the factored path"
        )
    phi = phase_space_window(grid) if window is None else np.asarray(window, dtype=complex)
    if phi.shape != (n, n):
        raise ValueError(f"window shape {phi.shape}, expected {(n, n)}")
    if not np.any(phi):
        raise ZeroWindow("phase-space window is identically zero")

    sigma = symbol.values
    gather = _translate_gather(n)
    best = np.zeros((n, n))
    for i1 in range(n):
        rolled1 = phi[gather[i1], :]  # window shifted by z1 along axis 0
        # all axis-1 shifts at once: stack[i2, a, b] = rolled1[a, (b - m2) % n]
        stack = np.conj(rolled1[:, gather].transpose(1, 0, 2)) * sigma[None, :, :]
        spec = ft_along(ft_along(stack, 1, grid.spacing), 2, grid.dual_spacing)
        weighted = np.abs(spec) * zweight2[:, None, None]
        np.maximum(best, weighted.max(axis=0), out=best)
    return float(zeta_cell * best.sum())
