"""Kohn-Nirenberg and Weyl quantization on the periodic grid.

A phase-space symbol is sampled on the product of the spatial grid and
its dual lattice.  The Kohn-Nirenberg operator of a symbol sigma acts
by

    (Op f)(x_j) = (1/L) sum_k  e^{2 pi i x_j xi_k} sigma(x_j, xi_k) f_hat(xi_k)

and the Weyl operator evaluates the symbol at periodic midpoints
(x+y)/2 instead of at x.  The two calculi are intertwined by a
Fourier multiplier on the symbol: writing sigma_hat(omega, u) for the
two-dimensional transform of the symbol (omega dual to x, u dual to xi),

    (KN symbol)_hat(omega, u) = e^{+pi i omega u} (Weyl symbol)_hat(omega, u)

which u_transform applies on the centered dual lattice.  Half-lattice
evaluations (the Weyl midpoints and the kernel shear below) are
resolved by trigonometric interpolation: a spectral phase shift on the
same centered lattice, exact for band-limited data and consistent with
the multiplier above, as the round-trip and oracle tests check.

Kernels: the Weyl symbol and the Schwartz kernel K determine each other
through the shear tau K(x, y) = K(x + y/2, x - y/2) followed by a
Fourier transform in y.  On the periodic grid the slice at fixed
difference t = x - y is an exact lattice gather, so the shear needs
interpolation only for the half-step t/2, again done spectrally.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FileFormatError, GridMismatch, InvalidValue, TooLarge, WrongQuantization
from .grid import (
    SampledFunction,
    UniformGrid,
    _frozen,
    _read_samples,
    _write_samples,
    bessel_weights,
    forward_ft,
    ft_along,
    ift_along,
)

KOHN_NIRENBERG = "kn"
WEYL = "weyl"

_MATRIX_LIMIT = 1024
_APPLY_LIMIT = 2048  # dense apply materializes a (count, count) stack


@dataclass(frozen=True, eq=False)
class PhaseSpaceSymbol:
    """Samples sigma(x_j, xi_k) with a quantization tag.

    values has shape (N, N): rows indexed by the spatial lattice,
    columns by the dual lattice.

    A symbol built by `product` is rank one, sigma(x, xi) = a(x) b(xi),
    and keeps factors = (a, b); its values are np.outer(a, b), computed
    on first use and cached.  Fast paths (the factored Sjostrand norm,
    the FFT-multiplier kn_apply) are chosen from factors alone.  A
    symbol built from values has factors None; when factors are given,
    values are formed from them and any values passed are not read.
    """

    grid: UniformGrid
    _values: np.ndarray = field(repr=False)
    quantization: str
    factors: tuple = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        if self.quantization not in (KOHN_NIRENBERG, WEYL):
            raise WrongQuantization(f"unknown quantization tag {self.quantization!r}")
        shape = self.grid.shape
        if self.factors is None:
            object.__setattr__(self, "_values", _frozen(self._values, shape * 2, "symbol"))
        else:
            a, b = self.factors
            factors = (_frozen(a, shape, "x factor"), _frozen(b, shape, "xi factor"))
            object.__setattr__(self, "factors", factors)
            object.__setattr__(self, "_values", None)

    @classmethod
    def product(cls, grid, a, b, quantization=KOHN_NIRENBERG):
        """The rank-one symbol sigma(x_j, xi_k) = a[j] * b[k]."""
        return cls(grid, None, quantization, factors=(a, b))

    @property
    def values(self):
        if self._values is None:
            values = np.outer(*self.factors)
            values.setflags(write=False)
            object.__setattr__(self, "_values", values)
        return self._values

    def with_values(self, values):
        """A dense symbol (no factors) on the same grid with the same tag."""
        return PhaseSpaceSymbol(self.grid, values, self.quantization)


@dataclass(frozen=True, eq=False)
class KernelRep:
    """A Schwartz kernel K(x, y) sampled on grid x grid."""

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.grid.shape * 2, "kernel"))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense discretized operator; entries maps raw samples to raw
    samples, so it is square."""

    entries: np.ndarray

    def __post_init__(self):
        n = len(self.entries) if np.ndim(self.entries) else 0
        object.__setattr__(self, "entries", _frozen(self.entries, (n, n), "matrix"))


def _require_tag(symbol, tag):
    if symbol.quantization != tag:
        raise WrongQuantization(f"expected a {tag!r} symbol, got {symbol.quantization!r}")


def _rank_one_products(a, b):
    """apply and adjoint of the KN operator of a(x) b(xi), diag(a) C with
    C the circulant whose eigenvalues are b in FFT order (the centering
    shifts and cell measures of forward_ft and inverse_ft cancel around
    a Fourier multiplier).  Both take a vector or an (N, k) block."""
    eig = np.fft.ifftshift(b)
    eig_conj = eig.conj()
    a_conj = a.conj()

    # x.T batches a block's columns along axis 0; a vector is unchanged
    def apply(x):
        return (a * np.fft.ifft(eig * np.fft.fft(x.T))).T

    def adjoint(y):
        return np.fft.ifft(eig_conj * np.fft.fft(a_conj * y.T)).T

    return apply, adjoint


def kn_apply(symbol, f):
    """Apply the Kohn-Nirenberg operator of the symbol to f.

    A rank-one symbol a(x) b(xi) acts as multiplication by a after the
    Fourier multiplier b, in O(N log N); any other symbol takes the
    dense path, limited to 2048 grid points.
    """
    _require_tag(symbol, KOHN_NIRENBERG)
    grid = symbol.grid
    if grid != f.grid:
        raise GridMismatch("symbol and function live on different grids")
    if symbol.factors is not None:
        apply, _ = _rank_one_products(*symbol.factors)
        return SampledFunction(grid, apply(f.values))
    n = grid.points_per_axis
    if n > _APPLY_LIMIT:
        raise TooLarge(f"dense apply is limited to {_APPLY_LIMIT} grid points, got {n}")
    weighted = symbol.values * forward_ft(f).values[None, :]
    # per-row inverse transform, batched over rows; row r of the result
    # evaluated at its own grid point r is the operator output there
    rows = ift_along(weighted, 1, grid.spacing)
    return SampledFunction(grid, np.diagonal(rows))


def weyl_apply(symbol, f):
    """Apply the Weyl operator of the symbol to f (via u_transform)."""
    _require_tag(symbol, WEYL)
    return kn_apply(u_transform(symbol, "to_KN"), f)


def _symbol_dual_mesh(grid):
    omega = grid.axis_frequencies()  # dual of the x axis, step 1/L
    u = grid.axis_points()  # dual of the xi axis, step L/N
    return omega[:, None], u[None, :]


def u_transform(symbol, direction):
    """Convert between Weyl and Kohn-Nirenberg symbols of one operator.

    direction is 'to_KN' (input must be Weyl) or 'to_Weyl' (input must
    be KN).  The conversion multiplies the symbol's two-dimensional
    transform by e^{+/- pi i omega u} on the centered dual lattice and
    flips the tag; the two directions are exact mutual inverses.
    """
    grid = symbol.grid
    if direction == "to_KN":
        _require_tag(symbol, WEYL)
        sign, new_tag = +1.0, KOHN_NIRENBERG
    elif direction == "to_Weyl":
        _require_tag(symbol, KOHN_NIRENBERG)
        sign, new_tag = -1.0, WEYL
    else:
        raise InvalidValue(f"direction must be 'to_KN' or 'to_Weyl', got {direction!r}")
    h = grid.spacing
    dual = grid.dual_spacing
    omega, u = _symbol_dual_mesh(grid)
    spectrum = ft_along(ft_along(symbol.values, 0, h), 1, dual)
    spectrum = spectrum * np.exp(sign * 1j * np.pi * omega * u)
    values = ift_along(ift_along(spectrum, 0, h), 1, dual)
    return PhaseSpaceSymbol(grid, values, new_tag)


def lift_symbol(symbol, s):
    """Multiply a Kohn-Nirenberg symbol by the Bessel weight <xi>^s, so
    that its operator is composed with <D>^s on the right.  A Weyl symbol
    raises WrongQuantization: the product is not that composition there,
    so convert it with u_transform first."""
    _require_tag(symbol, KOHN_NIRENBERG)
    if not np.isfinite(s):
        raise InvalidValue(f"lift order s must be finite, got {s!r}")
    if s == 0:
        return symbol
    weights = bessel_weights(symbol.grid, s)
    if symbol.factors is not None:
        a, b = symbol.factors
        return PhaseSpaceSymbol.product(symbol.grid, a, b * weights, symbol.quantization)
    return symbol.with_values(symbol.values * weights[None, :])


def _half_shift_rows(rows, shifts, spacing, extent):
    """Spectrally translate rows[i] by shifts[i] * spacing / 2.

    rows is (m, N) of periodic samples with the given spacing; the
    shift is exact trigonometric interpolation on the centered dual
    lattice, one half-step unit per count in `shifts`.
    """
    n = rows.shape[1]
    freqs = (np.arange(n) - n // 2) / extent
    spectra = ft_along(rows, 1, spacing)
    phase = np.exp(-2j * np.pi * freqs[None, :] * (shifts[:, None] * spacing / 2.0))
    return ift_along(spectra * phase, 1, spacing)


def _diagonals(n):
    """The centered differences t and the index of the kernel's
    diagonals: entry [t_pos, u] of the index is (u, (u - t) % N), the
    point u on the diagonal x - y = t h."""
    t = np.arange(n) - n // 2
    u = np.arange(n)
    return t, (u, (u - t[:, None]) % n)


def weyl_to_kernel(symbol):
    """The Schwartz kernel of the Weyl operator of the symbol."""
    _require_tag(symbol, WEYL)
    grid = symbol.grid
    n = grid.points_per_axis
    h = grid.spacing
    # sheared kernel G(x, t) = K(x + t h/2, x + t h/2 - t h) for the
    # centered difference t; its y-transform is the symbol, so invert:
    sheared = ift_along(symbol.values, 1, h)  # G[x_idx, t_pos]
    t, diagonals = _diagonals(n)
    # diagonal slices: D_t(u) = K(u, u - t h) = G(u - t h/2, t)
    kernel = np.empty((n, n), dtype=complex)
    kernel[diagonals] = _half_shift_rows(sheared.T, t, h, grid.extent)  # (t_pos, u_idx)
    return KernelRep(grid, kernel)


def kernel_to_weyl(kernel):
    """Invert weyl_to_kernel: Weyl symbol from a sampled kernel."""
    grid = kernel.grid
    h = grid.spacing
    t, diagonals = _diagonals(grid.points_per_axis)
    slices = kernel.values[diagonals]  # (t_pos, u_idx)
    sheared = _half_shift_rows(slices, -t, h, grid.extent).T  # G[x_idx, t_pos]
    values = ft_along(sheared, 1, h)
    return PhaseSpaceSymbol(grid, values, WEYL)


def as_matrix(symbol):
    """Dense matrix of the quantized operator, N <= 1024.

    The matrix acts on raw samples.  Domain and codomain both carry the
    grid cell h, which cancels from every L^p(h) -> L^p(h) norm ratio.
    """
    grid = symbol.grid
    n = grid.points_per_axis
    if n > _MATRIX_LIMIT:
        raise TooLarge(f"as_matrix is limited to N <= {_MATRIX_LIMIT}, got {n}")
    if symbol.quantization == WEYL:
        symbol = u_transform(symbol, "to_KN")
    h = grid.spacing
    # A[j, j'] = (h/L) sum_k sigma[j, k] e^{2 pi i xi_k (x_j - x_j')}
    #          = D[j, (j - j') mod N] with D the alternating inverse DFT
    signs = (-1.0) ** np.arange(n)
    diff_table = (h / grid.extent) * n * np.fft.ifft(symbol.values, axis=1) * signs[None, :]
    j = np.arange(n)
    entries = diff_table[j[:, None], (j[:, None] - j[None, :]) % n]
    return OperatorMatrix(entries)


def write_pss(symbol, path):
    """Write a PhaseSpaceSymbol as a PSS v2 text file: magic line
    ``PSS 2``, header fields ``quant=<kn|weyl> factors=<0|1>`` after
    extent, then for factors (a, b) 2N sample lines, a then b, and for
    any other symbol its N^2 values in x-major order."""
    factored = symbol.factors is not None
    values = np.concatenate(symbol.factors) if factored else symbol.values
    extra = f" quant={symbol.quantization} factors={int(factored)}"
    _write_samples(path, "PSS 2", symbol.grid, extra, values)


def read_pss(path):
    """Read a PSS v2 file back into a PhaseSpaceSymbol: a factors=1
    file as PhaseSpaceSymbol.product(a, b), a factors=0 file dense."""

    def shape(header, grid):
        if header["quant"] not in (KOHN_NIRENBERG, WEYL):
            raise FileFormatError(f"{path}: quant must be 'kn' or 'weyl', got {header['quant']!r}")
        if header["factors"] not in ("0", "1"):
            raise FileFormatError(f"{path}: factors must be 0 or 1, got {header['factors']!r}")
        n = grid.points_per_axis
        return (2, n) if header["factors"] == "1" else (n, n)

    header, grid, values = _read_samples(path, "PSS 2", ["quant", "factors"], shape)
    if header["factors"] == "1":
        return PhaseSpaceSymbol.product(grid, values[0], values[1], header["quant"])
    return PhaseSpaceSymbol(grid, values, header["quant"])
