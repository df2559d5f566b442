"""Periodic uniform grids and the 2*pi-convention Fourier transform.

Everything in this package approximates analysis on R by analysis on
the periodic interval [-L/2, L/2) sampled at N points.  The continuous
transform pair is

    (F f)(xi)      = integral f(x) exp(-2 pi i x xi) dx
    (F^-1 g)(x)    = integral g(xi) exp(+2 pi i xi x) dxi

for which the unit Gaussian exp(-pi x^2) is a fixed point.  With grid
points x_j = -L/2 + j h (h = L/N) and dual lattice xi_k = k/L for
k = -N/2 .. N/2-1, the Riemann sum of the forward integral is an FFT
conjugated by the sign modulation S = diag((-1)^j):

    F f(xi_k) = h * (-1)^(N/2) S fft(S f)

the lattice identity for h * fftshift(fft(ifftshift(f))): each
half-period shift is a sign modulation on the other side of the FFT,
and at power-of-two N the two agree to the bit, up to the sign of an
exact zero.  Spectra are in ascending order.  The inverse transform
carries the dual cell measure 1/L, making inverse_ft(forward_ft(f)) ==
f in exact arithmetic, and Parseval exact:  h sum|f|^2 = (1/L) sum|f_hat|^2.

Functions whose mass does not decay below roundoff at the box boundary
are silently periodized; callers choose L large enough that this is a
non-issue (the experiment defaults L=16, N=256 keep Gaussian tails
below 1e-12 at the boundary).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionUnsupported,
    FileFormatError,
    GridMismatch,
    InvalidValue,
    OffLattice,
    TooLarge,
)

_LATTICE_RTOL = 1e-9
_MAX_POINTS = 2**30
_WRITE_LINES = 2**10


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
    InvalidValue, as does an odd N, and an N above 2**30 (16 GiB a
    complex vector) TooLarge; numpy integers are accepted.  An extent
    that is a bool, a str or any other non-real value raises
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
        if n > _MAX_POINTS:
            raise TooLarge(f"points_per_axis is limited to {_MAX_POINTS}, got {n}")
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


class _Owned(np.ndarray):
    """A fresh array the library has built and hands to a value type:
    _frozen adopts work.view(_Owned) instead of copying it."""


def _frozen(values, shape, what):
    """A read-only complex array checked for shape and finiteness: values
    itself when it is _Owned (as a C-order complex ndarray), otherwise a
    C-order copy, so a caller's array is never shared and an FFT of it is C order."""
    if isinstance(values, _Owned):
        values = np.asarray(values.view(np.ndarray), dtype=complex, order="C")
    else:
        values = np.array(values, dtype=complex, order="C")
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


def _centered(work, axis, transform, scale):
    """transform (np.fft.fft or ifft) along a centered axis of the complex
    array work, in place, then multiply by scale: (-1)^(n/2) S
    transform(S work).  Returns work."""
    lines = np.moveaxis(work, axis, -1)
    lines[..., 1::2] *= -1
    transform(work, axis=axis, out=work)
    work *= scale
    lines[..., (lines.shape[-1] // 2 + 1) % 2::2] *= -1
    return work


def ft_along(values, axis, spacing):
    """Forward transform along one axis of a centered-lattice array.

    The axis is interpreted as samples at (j - n/2) * spacing; the
    result is indexed by the centered dual lattice of that axis and
    carries the quadrature measure `spacing`.
    """
    return _centered(np.array(values, dtype=complex), axis, np.fft.fft, spacing)


def ift_along(values, axis, spacing):
    """Inverse of ft_along (same `spacing` as the forward call).  It
    multiplies by 1 / spacing: numpy's complex division by a real spacing
    to the bit, up to the sign of an exact zero, and about 11 times
    cheaper."""
    return _centered(np.array(values, dtype=complex), axis, np.fft.ifft, 1.0 / spacing)


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
    bit-exact, formatted from Python floats _WRITE_LINES lines a call."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{magic}\n")
        fh.write(f"dim={grid.dim} n={grid.points_per_axis} extent={grid.extent:.17g}{extra}\n")
        for start in range(0, values.size, _WRITE_LINES):
            block = values.ravel()[start:start + _WRITE_LINES].view(float).tolist()
            fh.write(("{:.17g} {:.17g}\n" * (len(block) // 2)).format(*block))


def _parse_header(line, expected_keys, path):
    fields = [field.partition("=") for field in line.split()]
    if [(name, eq) for name, eq, _ in fields] != [(key, "=") for key in expected_keys]:
        raise FileFormatError(f"{path}: header must have fields {expected_keys}, got {line!r}")
    return {name: value for name, _, value in fields}


def _read_samples(path, magic, extra_keys, shape):
    """Read a file written by _write_samples.

    shape(header, grid) gives the shape of the sample block; it runs
    before any sample line is read, so it may also reject the header.
    The block is the next prod(shape) lines, none blank; only blank
    lines may follow.  Returns (header fields, grid, values).  A header
    with dim other than 1 raises DimensionUnsupported; every other
    departure from the format, a non-ASCII byte too, FileFormatError.
    """
    try:
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
            count = math.prod(block)
            # numpy only warns on a block with no data, so line 3 is checked here
            lines = itertools.islice(fh, count)
            first = next(lines, "")
            if not first.strip():
                raise FileFormatError(f"{path}: line 3 must be a 're im' sample, got {first!r}")
            try:
                samples = np.loadtxt(itertools.chain([first], lines), comments=None, ndmin=2)
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad sample line: {exc}") from exc
            if samples.shape != (count, 2):
                got = f"{len(samples)} rows of {samples.shape[1]} numbers"
                raise FileFormatError(f"{path}: expected {count} 're im' sample lines, got {got}")
            if any(line.strip() for line in fh):
                raise FileFormatError(f"{path}: trailing content after {count} samples")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: non-ascii byte: {exc}") from exc
    return header, grid, samples.view(complex).reshape(block)


def write_sfn(f, path):
    """Write a SampledFunction as an SFN v1 text file: magic line
    ``SFN 1`` and no header fields after extent."""
    _write_samples(path, "SFN 1", f.grid, "", f.values)


def read_sfn(path):
    """Read an SFN v1 file back into a SampledFunction."""
    _, grid, values = _read_samples(path, "SFN 1", [], lambda header, grid: grid.shape)
    return SampledFunction(grid, values)
