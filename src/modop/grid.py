"""Periodic uniform grids and the 2*pi-convention Fourier transform.

Everything in this package approximates analysis on R by analysis on
the periodic interval [-L/2, L/2) sampled at N points.  The continuous
transform pair is

    (F f)(xi)      = integral f(x) exp(-2 pi i x xi) dx
    (F^-1 g)(x)    = integral g(xi) exp(+2 pi i xi x) dxi

for which the unit Gaussian exp(-pi x^2) is a fixed point.  With grid
points x_j = -L/2 + j h (h = L/N) and dual lattice xi_k = k/L for
k = -N/2 .. N/2-1, the Riemann sum of the forward integral factors
through an FFT conjugated by index shifts:

    F f(xi_k) = h * fftshift(fft(ifftshift(f)))

The inner ifftshift moves the sample at x = 0 to index 0 (where the FFT
expects the origin), and the outer fftshift moves frequency 0 back to
the middle so spectra are stored in natural ascending order, never in
FFT-wrapped order.  The inverse transform carries the dual cell measure
1/L, making inverse_ft(forward_ft(f)) == f in exact arithmetic, and
Parseval exact:  h sum|f|^2 = (1/L) sum|f_hat|^2.

Functions whose mass does not decay below roundoff at the box boundary
are silently periodized; callers choose L large enough that this is a
non-issue (the experiment defaults L=16, N=256 keep Gaussian tails
below 1e-12 at the boundary).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionUnsupported, FileFormatError, GridMismatch, InvalidValue, OffLattice

_LATTICE_RTOL = 1e-9


@dataclass(frozen=True)
class UniformGrid:
    """A periodic uniform grid on [-L/2, L/2) with N points.

    Parameters
    ----------
    dim : int
        Spatial dimension; must be 1.  It is kept in the constructor and
        in the SFN/PSS file headers; any other integer >= 1 raises
        DimensionUnsupported.
    points_per_axis : int
        N, even and at least 2.  Powers of two give the fastest FFTs.
    extent : float
        Side length L > 0 of the periodic box, finite.

    A bool, a non-integer, a dim below 1 or an N below 2 raises
    InvalidValue, as does an odd N; numpy integers are accepted.  An
    extent that is a bool, a str or any other non-real value raises
    InvalidValue; ints and numpy reals (0-d arrays too) are accepted and
    stored as float.

    The dual (frequency) lattice is {k/L : k = -N/2 .. N/2-1}, with cell
    measure 1/L; the spatial cell measure is h = L/N.
    """

    dim: int
    points_per_axis: int
    extent: float

    def __post_init__(self):
        dim = _integer(self.dim, "dim", 1)
        n = _integer(self.points_per_axis, "points_per_axis", 2)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points_per_axis", n)
        # float() would read "4" as 4.0 and True as 1.0
        if np.ndim(self.extent) != 0 or np.asarray(self.extent).dtype.kind not in "iuf":
            raise InvalidValue(f"extent must be a real number, got {self.extent!r}")
        object.__setattr__(self, "extent", float(self.extent))
        if self.dim != 1:
            raise DimensionUnsupported(f"only dimension 1 is supported, got {self.dim}")
        if self.points_per_axis % 2 != 0:
            raise InvalidValue(f"points_per_axis must be even, got {self.points_per_axis}")
        if not (math.isfinite(self.extent) and self.extent > 0):
            raise InvalidValue(f"extent must be finite and positive, got {self.extent}")

    @property
    def spacing(self):
        """Grid step h = L/N, the spatial quadrature cell measure."""
        return self.extent / self.points_per_axis

    @property
    def shape(self):
        return (self.points_per_axis,)

    @property
    def dual_spacing(self):
        """Dual lattice step 1/L, the frequency quadrature cell measure."""
        return 1.0 / self.extent

    def axis_points(self):
        """Grid coordinates -L/2 + j h, j = 0..N-1."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def axis_frequencies(self):
        """Dual lattice k/L, k = -N/2..N/2-1, ascending."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) / self.extent


def _integer(value, name, minimum=0):
    """value as an int >= minimum; a bool or non-integer raises, not truncates."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidValue(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _frozen(values, shape, what):
    """A read-only complex copy of values, checked for shape and finiteness."""
    values = np.array(values, dtype=complex)
    if values.shape != shape:
        raise GridMismatch(f"{what} shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise InvalidValue(f"{what} values must be finite")
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a function on a UniformGrid.

    values has shape grid.shape and is held as a read-only copy; all
    operations return new instances.
    """

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = _frozen(self.values, self.grid.shape, "sampled function")
        object.__setattr__(self, "values", values)


def ft_along(values, axis, spacing):
    """Forward transform along one axis of a centered-lattice array.

    The axis is interpreted as samples at (j - n/2) * spacing; the
    result is indexed by the centered dual lattice of that axis and
    carries the quadrature measure `spacing`.
    """
    spectrum = np.fft.ifftshift(values, axes=axis).astype(complex, copy=False)
    np.fft.fft(spectrum, axis=axis, out=spectrum)
    spectrum *= spacing
    return np.fft.fftshift(spectrum, axes=axis)


def ift_along(values, axis, spacing):
    """Inverse of ft_along (same `spacing` as the forward call)."""
    samples = np.fft.ifftshift(values, axes=axis).astype(complex, copy=False)
    np.fft.ifft(samples, axis=axis, out=samples)
    samples /= spacing
    return np.fft.fftshift(samples, axes=axis)


def forward_ft(f):
    """The 2*pi-convention Fourier transform of a SampledFunction.

    Returns a SampledFunction on the same grid whose values are indexed
    by the dual lattice (natural ascending order).
    """
    return SampledFunction(f.grid, ft_along(f.values, 0, f.grid.spacing))


def inverse_ft(F):
    """Inverse transform; exact inverse of forward_ft on the grid."""
    return SampledFunction(F.grid, ift_along(F.values, 0, F.grid.spacing))


def translate(f, a):
    """Translate f by the grid point a:  (T_a f)(x) = f(x - a).

    Implemented as an exact cyclic shift; raises InvalidValue when a
    is not finite and OffLattice when it is not a grid point."""
    spacing = f.grid.spacing
    ratio = float(a) / spacing
    if not math.isfinite(ratio):
        raise InvalidValue(f"shift={a!r} is not a finite multiple of {spacing}")
    offset = round(ratio)
    if abs(ratio - offset) > _LATTICE_RTOL * max(1.0, abs(ratio)):
        raise OffLattice(f"shift={a!r} is not a lattice multiple of {spacing}")
    return SampledFunction(f.grid, np.roll(f.values, offset))


def bessel_weights(grid, s):
    """The multiplier <xi>^s = (1 + xi^2)^(s/2) on the dual lattice; a
    non-finite order s, or one whose weights overflow on the grid's
    lattice, raises InvalidValue."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (1.0 + grid.axis_frequencies() ** 2) ** (s / 2.0)
    # xi[0] = -N/(2L) has the largest |xi|, so for s > 0 it has the largest weight
    if not (math.isfinite(s) and math.isfinite(weights[0])):
        raise InvalidValue(f"order s={s!r} must be finite and keep <xi>^s finite on this grid")
    return weights


def bessel_potential(f, s):
    """Apply <D>^s, the Fourier multiplier <xi>^s, to f."""
    if s == 0:
        return f
    weights = bessel_weights(f.grid, s)
    return inverse_ft(SampledFunction(f.grid, forward_ft(f).values * weights))


def require_same_grid(*functions):
    """Raise GridMismatch unless all arguments share one grid."""
    first = functions[0].grid
    for other in functions[1:]:
        if other.grid != first:
            raise GridMismatch(f"grids differ: {first!r} vs {other.grid!r}")
    return first


def _write_samples(path, magic, grid, extra, values):
    """Write a sample file: the magic line, the header
    ``dim=1 n=<N> extent=<L>`` plus `extra`, then one ``re im`` pair per
    value, row-major, with 17 significant digits so the round trip is
    bit-exact."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{magic}\n")
        fh.write(f"dim={grid.dim} n={grid.points_per_axis} extent={grid.extent:.17g}{extra}\n")
        for z in values.ravel():
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def _parse_header(line, expected_keys, path):
    fields = line.split()
    if len(fields) != len(expected_keys):
        raise FileFormatError(f"{path}: header must have fields {expected_keys}, got {line!r}")
    out = {}
    for field, key in zip(fields, expected_keys):
        name, eq, value = field.partition("=")
        if name != key or eq != "=":
            raise FileFormatError(f"{path}: expected '{key}=...', got {field!r}")
        out[key] = value
    return out


def _read_samples(path, magic, extra_keys, shape):
    """Read a file written by _write_samples.

    shape(header, grid) gives the shape of the sample block; it runs
    before any sample line is read, so it may also reject the header.
    Returns (header fields, grid, values).  A header with dim other
    than 1 raises DimensionUnsupported; every other departure from the
    format raises FileFormatError.
    """
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
        if line != magic:
            raise FileFormatError(f"{path}: bad magic line {line!r}, expected {magic!r}")
        header = _parse_header(fh.readline().strip(), ["dim", "n", "extent", *extra_keys], path)
        try:
            grid = UniformGrid(int(header["dim"]), int(header["n"]), float(header["extent"]))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad header values: {exc}") from exc
        block = shape(header, grid)
        count = int(np.prod(block))
        values = np.empty(count, dtype=complex)
        for i in range(count):
            line = fh.readline()
            if not line:
                raise FileFormatError(f"{path}: expected {count} sample lines, got {i}")
            parts = line.split()
            if len(parts) != 2:
                raise FileFormatError(f"{path}: sample line {i + 3} must be 're im', got {line!r}")
            try:
                values[i] = complex(float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad number on line {i + 3}: {line!r}") from exc
        if fh.readline().strip():
            raise FileFormatError(f"{path}: trailing content after {count} samples")
    return header, grid, values.reshape(block)


def write_sfn(f, path):
    """Write a SampledFunction as an SFN v1 text file: magic line
    ``SFN 1`` and no header fields after extent."""
    _write_samples(path, "SFN 1", f.grid, "", f.values)


def read_sfn(path):
    """Read an SFN v1 file back into a SampledFunction."""
    _, grid, values = _read_samples(path, "SFN 1", [], lambda header, grid: grid.shape)
    return SampledFunction(grid, values)
