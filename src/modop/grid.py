"""Periodic uniform grids and the 2*pi-convention Fourier transform.

Everything in this package approximates analysis on R^d by analysis on
the periodic box [-L/2, L/2)^d sampled at N points per axis.  The
continuous transform pair is

    (F f)(xi)      = integral f(x) exp(-2 pi i x.xi) dx
    (F^-1 g)(x)    = integral g(xi) exp(+2 pi i xi.x) dxi

for which the unit Gaussian exp(-pi |x|^2) is a fixed point.  With grid
points x_j = -L/2 + j h (h = L/N) and dual lattice xi_k = k/L for
k = -N/2 .. N/2-1, the Riemann sum of the forward integral factors
through an FFT conjugated by index shifts:

    F f(xi_k) = h^d * fftshift(fft_d(ifftshift(f)))

The inner ifftshift moves the sample at x = 0 to index 0 (where the FFT
expects the origin), and the outer fftshift moves frequency 0 back to
the middle so spectra are stored in natural ascending order, never in
FFT-wrapped order.  The inverse transform carries the dual cell measure
1/L per axis, making inverse_ft(forward_ft(f)) == f in exact
arithmetic, and Parseval exact:  h^d sum|f|^2 = (1/L)^d sum|f_hat|^2.

Functions whose mass does not decay below roundoff at the box boundary
are silently periodized; callers choose L large enough that this is a
non-issue (the experiment defaults L=16, N=256 keep Gaussian tails
below 1e-12 at the boundary).
"""

import numpy as np

from .errors import DimensionUnsupported, FileFormatError, GridMismatch, OffLattice

_LATTICE_RTOL = 1e-9


class UniformGrid:
    """A periodic uniform grid on [-L/2, L/2)^d with N points per axis.

    Parameters
    ----------
    dim : int
        Spatial dimension d >= 1 (norms and quantization are exercised
        at d=1 and d=2; higher d works where memory allows).
    points_per_axis : int
        N, even and at least 2.  Powers of two give the fastest FFTs.
    extent : float
        Side length L > 0 of the periodic box.

    The dual (frequency) lattice is {k/L : k = -N/2 .. N/2-1} per axis,
    with cell measure (1/L)^d; the spatial cell measure is h^d, h = L/N.
    """

    __slots__ = ("dim", "points_per_axis", "extent")

    def __init__(self, dim, points_per_axis, extent):
        dim = int(dim)
        points_per_axis = int(points_per_axis)
        extent = float(extent)
        if dim < 1:
            raise DimensionUnsupported(f"dimension must be >= 1, got {dim}")
        if points_per_axis < 2 or points_per_axis % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 2, got {points_per_axis}")
        if not extent > 0:
            raise ValueError(f"extent must be positive, got {extent}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points_per_axis", points_per_axis)
        object.__setattr__(self, "extent", extent)

    def __setattr__(self, name, value):
        raise AttributeError("UniformGrid is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, UniformGrid)
            and self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
            and self.extent == other.extent
        )

    def __hash__(self):
        return hash((self.dim, self.points_per_axis, self.extent))

    def __repr__(self):
        return f"UniformGrid(dim={self.dim}, points_per_axis={self.points_per_axis}, extent={self.extent})"

    @property
    def spacing(self):
        """Grid step h = L/N."""
        return self.extent / self.points_per_axis

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    @property
    def cell(self):
        """Spatial quadrature cell measure h^d."""
        return self.spacing**self.dim

    @property
    def dual_cell(self):
        """Frequency quadrature cell measure (1/L)^d."""
        return self.extent**-self.dim

    @property
    def dual_spacing(self):
        return 1.0 / self.extent

    def axis_points(self):
        """Grid coordinates -L/2 + j h along one axis, j = 0..N-1."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def axis_frequencies(self):
        """Dual lattice k/L along one axis, k = -N/2..N/2-1, ascending."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) / self.extent

    def coordinate_arrays(self):
        """Meshgrid ('ij') of spatial coordinates, one array per axis."""
        return np.meshgrid(*([self.axis_points()] * self.dim), indexing="ij")

    def frequency_arrays(self):
        """Meshgrid ('ij') of dual-lattice coordinates, one array per axis."""
        return np.meshgrid(*([self.axis_frequencies()] * self.dim), indexing="ij")

    def index_offset(self, a, spacing, name):
        """Integer lattice offsets of the point `a`, or raise OffLattice.

        `a` may be a scalar (d=1 or isotropic shorthand) or a length-d
        sequence; the result is a length-d tuple of ints with
        a_i = offset_i * spacing.
        """
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        if arr.size == 1 and self.dim > 1:
            arr = np.repeat(arr, self.dim)
        if arr.shape != (self.dim,):
            raise OffLattice(f"{name} must have {self.dim} components, got shape {arr.shape}")
        ratio = arr / spacing
        rounded = np.round(ratio)
        if np.any(np.abs(ratio - rounded) > _LATTICE_RTOL * np.maximum(1.0, np.abs(ratio))):
            raise OffLattice(f"{name}={a!r} is not a lattice multiple of {spacing}")
        return tuple(int(r) for r in rounded)


class SampledFunction:
    """Complex samples of a function on a UniformGrid.

    values has shape grid.shape (row-major over axes) and is held
    read-only; all operations return new instances.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape == (grid.points_per_axis**grid.dim,):
            values = values.reshape(grid.shape)
        if values.shape != grid.shape:
            raise GridMismatch(f"values shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SampledFunction is immutable")

    @classmethod
    def from_callable(cls, grid, fn):
        """Sample fn(x1, ..., xd) on the grid."""
        return cls(grid, np.asarray(fn(*grid.coordinate_arrays()), dtype=complex))

    def __repr__(self):
        return f"SampledFunction(grid={self.grid!r})"


def ft_along(values, axis, spacing):
    """Forward transform along one axis of a centered-lattice array.

    The axis is interpreted as samples at (j - n/2) * spacing; the
    result is indexed by the centered dual lattice of that axis and
    carries the quadrature measure `spacing`.
    """
    shifted = np.fft.ifftshift(values, axes=axis)
    out = np.fft.fft(shifted, axis=axis)
    return spacing * np.fft.fftshift(out, axes=axis)


def ift_along(values, axis, spacing):
    """Inverse of ft_along (same `spacing` as the forward call)."""
    shifted = np.fft.ifftshift(values, axes=axis)
    out = np.fft.ifft(shifted, axis=axis)
    return np.fft.fftshift(out, axes=axis) / spacing


def forward_ft(f):
    """The 2*pi-convention Fourier transform of a SampledFunction.

    Returns a SampledFunction on the same grid whose values are indexed
    by the dual lattice (natural ascending order).
    """
    out = f.values
    for axis in range(f.grid.dim):
        out = ft_along(out, axis, f.grid.spacing)
    return SampledFunction(f.grid, out)


def inverse_ft(F):
    """Inverse transform; exact inverse of forward_ft on the grid."""
    out = F.values
    for axis in range(F.grid.dim):
        out = ift_along(out, axis, F.grid.spacing)
    return SampledFunction(F.grid, out)


def translate(f, a):
    """Translate f by the grid point a:  (T_a f)(x) = f(x - a).

    Implemented as an exact cyclic shift; raises OffLattice when a is
    not a grid point."""
    offsets = f.grid.index_offset(a, f.grid.spacing, "shift")
    return SampledFunction(f.grid, np.roll(f.values, offsets, axis=tuple(range(f.grid.dim))))


def modulate(f, xi0):
    """Multiply f by the character exp(2 pi i xi0.x), xi0 on the dual lattice."""
    offsets = f.grid.index_offset(xi0, f.grid.dual_spacing, "modulation frequency")
    mesh = f.grid.coordinate_arrays()
    phase = sum((k * f.grid.dual_spacing) * x for k, x in zip(offsets, mesh))
    return SampledFunction(f.grid, f.values * np.exp(2j * np.pi * phase))


def bessel_weights(grid, s):
    """The multiplier <xi>^s = (1 + |xi|^2)^(s/2) on the dual lattice."""
    mesh = grid.frequency_arrays()
    return (1.0 + sum(a**2 for a in mesh)) ** (s / 2.0)


def bessel_potential(f, s):
    """Apply <D>^s, the Fourier multiplier <xi>^s, to f."""
    if s == 0:
        return f
    spectrum = forward_ft(f)
    return inverse_ft(SampledFunction(f.grid, spectrum.values * bessel_weights(f.grid, s)))


def require_same_grid(*functions):
    """Raise GridMismatch unless all arguments share one grid."""
    first = functions[0].grid
    for other in functions[1:]:
        if other.grid != first:
            raise GridMismatch(f"grids differ: {first!r} vs {other.grid!r}")
    return first


def write_sfn(f, path):
    """Write a SampledFunction as an SFN v1 text file.

    Line 1: ``SFN 1``.  Line 2: ``dim=<d> n=<N> extent=<L>``.  Then one
    ``re im`` pair per sample, row-major, printed with 17 significant
    digits so the round trip is bit-exact.
    """
    grid = f.grid
    flat = f.values.ravel()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("SFN 1\n")
        fh.write(f"dim={grid.dim} n={grid.points_per_axis} extent={grid.extent:.17g}\n")
        for z in flat:
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


def read_sfn(path):
    """Read an SFN v1 file back into a SampledFunction."""
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().strip()
        if magic != "SFN 1":
            raise FileFormatError(f"{path}: bad magic line {magic!r}, expected 'SFN 1'")
        header = _parse_header(fh.readline().strip(), ["dim", "n", "extent"], path)
        try:
            grid = UniformGrid(int(header["dim"]), int(header["n"]), float(header["extent"]))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad header values: {exc}") from exc
        count = grid.points_per_axis**grid.dim
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
    return SampledFunction(grid, values)
