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

which u_transform applies.  Half-lattice evaluations (the Weyl
midpoints and the kernel shear below) are resolved by trigonometric
interpolation: a spectral phase shift, exact for band-limited data and
consistent with the multiplier above, as the round-trip and oracle
tests check.

Both phases are one chirp e^{+/- pi i j k / N} in signed lattice
indices j, k (omega u = j k / N, and a shift by t half steps is
e^{-2 pi i k t / (2N)} at frequency k / L), so _chirp_multiply reads
it from a table of the 2N-th roots of unity at (j k) mod 2N instead of
taking N^2 complex exponentials of arguments up to pi N / 4.  It runs
the transforms in place on one array in FFT order: the fftshift that
would end the forward transform and the ifftshift that would start the
inverse cancel, so one ifftshift comes in and one fftshift goes out.

Kernels: the Weyl symbol and the Schwartz kernel K determine each other
through the shear tau K(x, y) = K(x + y/2, x - y/2) followed by a
Fourier transform in y.  On the periodic grid the slice at fixed
difference t = x - y is an exact lattice gather, so the shear needs
interpolation only for the half-step t/2, again done spectrally.  One
layout, _skew, holds the diagonals of the kernel (from its slices at
shift N/2, and back, being its own inverse) and of as_matrix (from
its difference table at shift 0).

Operators: kn_operator is the one place that says which operator a
Kohn-Nirenberg symbol denotes.  kn_apply uses its apply, and every
norm estimator in opnorm reads its size, apply, adjoint, sums of |A|
and closed-form spectral norm.  A symbol with factors a(x) b(xi) is
applied by FFT at any N; any other symbol is its dense as_matrix,
N <= 1024.
"""

import functools
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
    ft_along,
    ift_along,
)

KOHN_NIRENBERG = "kn"
WEYL = "weyl"

_MATRIX_LIMIT = 1024
# chirp entries _chirp_multiply forms at once (256 KiB), so it never holds
# an N x N phase beside its work array
_CHIRP_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class PhaseSpaceSymbol:
    """Samples sigma(x_j, xi_k) with a quantization tag.

    values has shape (N, N): rows indexed by the spatial lattice,
    columns by the dual lattice.

    A symbol built by `product` is rank one, sigma(x, xi) = a(x) b(xi),
    and keeps factors = (a, b); its values are np.outer(a, b), computed
    on first use and cached.  Fast paths (the factored Sjostrand norm,
    the FFT operator of kn_operator) are chosen from factors alone.  A
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


def kn_operator(source):
    """The operator of an OperatorMatrix or of a Kohn-Nirenberg symbol, as
    (n, apply, adjoint, column_sums, row_sums, exact_2).

    apply and adjoint take a vector or an (n, k) block; column_sums and
    row_sums return the column and row sums of |A|, exact_2 the spectral
    norm in closed form or None.  Every entry is a callable and pays for
    its work only when called.  A symbol with factors (a, b) is diag(a) C,
    C the circulant whose eigenvalues are b in FFT order (the centering
    shifts and cell measures of forward_ft and inverse_ft cancel around a
    Fourier multiplier): it applies by FFT at any N, its column sums are
    a circular correlation of |a| with |c| (c = ifft of those
    eigenvalues), its row sums |a| sum|c|, and its exact_2 max|a| max|b|
    when |a| or |b| is constant (C's singular values are |b|).  Any other
    symbol is its as_matrix, N <= 1024, with exact_2 None.
    """
    if isinstance(source, PhaseSpaceSymbol):
        _require_tag(source, KOHN_NIRENBERG)
        if source.factors is not None:
            return _rank_one_operator(*source.factors)
        source = as_matrix(source)
    a = source.entries
    # the conjugate is formed on the first adjoint call, once per operator
    a_star = functools.cache(lambda: a.conj().T)
    return (
        len(a),
        lambda x: a @ x,
        lambda z: a_star() @ z,
        lambda: np.abs(a).sum(axis=0),
        lambda: np.abs(a).sum(axis=1),
        lambda: None,
    )


def _rank_one_operator(a, b):
    """kn_operator of the symbol a(x) b(xi)."""
    eig = np.fft.ifftshift(b)

    def abs_c():
        # |c|, c the circulant's first column; each norm reads it at most once
        return np.abs(np.fft.ifft(eig))

    # x.T batches a block's columns along axis 0; a vector is unchanged
    def apply(x):
        return (a * np.fft.ifft(eig * np.fft.fft(x.T))).T

    def adjoint(y):
        return np.fft.ifft(eig.conj() * np.fft.fft(a.conj() * y.T)).T

    def column_sums():
        # sum_j |a_j| |c_{j - j'}|
        return np.fft.irfft(np.fft.rfft(np.abs(a)) * np.fft.rfft(abs_c()).conj(), len(a))

    def exact_2():
        abs_a, abs_b = np.abs(a), np.abs(b)
        if np.all(abs_a == abs_a[0]) or np.all(abs_b == abs_b[0]):
            return abs_a.max() * abs_b.max()
        return None

    return len(a), apply, adjoint, column_sums, lambda: np.abs(a) * abs_c().sum(), exact_2


def kn_apply(symbol, f):
    """Apply the Kohn-Nirenberg operator of the symbol to f: the apply of
    its kn_operator, so O(N log N) for a symbol with factors and a
    product with its as_matrix (N <= 1024) for any other."""
    if symbol.grid != f.grid:
        raise GridMismatch("symbol and function live on different grids")
    _, apply, *_ = kn_operator(symbol)
    return SampledFunction(f.grid, apply(f.values))


def weyl_apply(symbol, f):
    """Apply the Weyl operator of the symbol to f (via u_transform)."""
    _require_tag(symbol, WEYL)
    return kn_apply(u_transform(symbol, "to_KN"), f)


def _signed(n):
    """The signed lattice indices k - N/2, k = 0..N-1, in FFT order."""
    return np.fft.ifftshift(np.arange(n) - n // 2)


def _roots(n):
    """The 2N-th roots of unity e^{i pi r / N}, r = 0..2N-1, each taken
    at its angle reduced to [-pi, pi)."""
    return np.exp(1j * np.pi / n * _signed(2 * n))


def _chirp_multiply(values, spacings, j):
    """Centered-lattice values, shape (m, N), transformed along their
    trailing axes (one forward transform per spacing, as in ft_along),
    row r multiplied by the chirp e^{i pi j[r] k / N}, k the signed
    index of the last axis, and transformed back as in ift_along.

    The transforms run in place on one FFT-order copy, so the values
    equal the four-call composition ift_along(ft_along(values) * the
    centered chirp), axis by axis in the same order, to the bit.  The
    chirp is the root of unity at (j[r] k) mod 2N, formed a block of
    rows at a time.
    """
    n = values.shape[-1]
    axes = tuple(range(-len(spacings), 0))
    # C order, so the transforms along the last axis read contiguous rows
    work = np.ascontiguousarray(np.fft.ifftshift(values, axes=axes), dtype=complex)
    for axis, spacing in zip(axes, spacings):
        np.fft.fft(work, axis=axis, out=work)
        work *= spacing
    roots, k = _roots(n), _signed(n)
    rows = max(1, _CHIRP_ENTRIES // n)
    for start in range(0, len(j), rows):
        index = np.multiply.outer(j[start:start + rows], k)
        index %= 2 * n
        work[start:start + rows] *= roots[index]
    for axis, spacing in zip(axes, spacings):
        np.fft.ifft(work, axis=axis, out=work)
        work /= spacing
    return np.fft.fftshift(work, axes=axes)


def u_transform(symbol, direction):
    """Convert between Weyl and Kohn-Nirenberg symbols of one operator.

    direction is 'to_KN' (input must be Weyl) or 'to_Weyl' (input must
    be KN).  The conversion multiplies the symbol's two-dimensional
    transform by e^{+/- pi i omega u} (the chirp e^{+/- pi i j k / N} in
    the signed indices of omega and u) and flips the tag.  The two
    directions are inverses up to roundoff.
    """
    grid = symbol.grid
    if direction == "to_KN":
        _require_tag(symbol, WEYL)
        sign, new_tag = 1, KOHN_NIRENBERG
    elif direction == "to_Weyl":
        _require_tag(symbol, KOHN_NIRENBERG)
        sign, new_tag = -1, WEYL
    else:
        raise InvalidValue(f"direction must be 'to_KN' or 'to_Weyl', got {direction!r}")
    omega = sign * _signed(grid.points_per_axis)
    values = _chirp_multiply(symbol.values, (grid.spacing, grid.dual_spacing), omega)
    return PhaseSpaceSymbol(grid, values, new_tag)


def lift_symbol(symbol, s):
    """Multiply a Kohn-Nirenberg symbol by the Bessel weight <xi>^s, so
    that its operator is composed with <D>^s on the right.  A Weyl symbol
    raises WrongQuantization: the product is not that composition there,
    so convert it with u_transform first."""
    _require_tag(symbol, KOHN_NIRENBERG)
    if s == 0:
        return symbol
    weights = bessel_weights(symbol.grid, s)
    if symbol.factors is not None:
        a, b = symbol.factors
        return PhaseSpaceSymbol.product(symbol.grid, a, b * weights, symbol.quantization)
    return symbol.with_values(symbol.values * weights[None, :])


def _skew(values, shift):
    """Entry [j, m] is values[j, (j - m + shift) % N]: it moves values,
    does no arithmetic and is its own inverse.  A view of one (N, 2N)
    gather, row j holding values[j, (shift - c) % N] at column c, read in
    rows of 2N - 1 that start row j at column N - j.  np.take copies
    values that are not C-contiguous first, so callers hand it rows."""
    n = len(values)
    doubled = np.take(values, (shift - np.arange(2 * n)) % n, axis=1)
    return doubled.reshape(-1)[n:n + n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, :n]


def weyl_to_kernel(symbol):
    """The Schwartz kernel of the Weyl operator of the symbol."""
    _require_tag(symbol, WEYL)
    grid = symbol.grid
    n = grid.points_per_axis
    h = grid.spacing
    t = np.arange(n) - n // 2
    # sheared kernel G(x, t) = K(x + t h/2, x + t h/2 - t h) for the
    # centered difference t; its y-transform is the symbol, so invert it
    # (G[x_idx, t_pos]) and shift each t row to the diagonal slice
    # D_t(u) = K(u, u - t h) = G(u - t h/2, t), (t_pos, u_idx); K is _skew
    # of D copied to columns, in one expression to free each array early
    return KernelRep(grid, _skew(np.ascontiguousarray(
        _chirp_multiply(ift_along(symbol.values, 1, h).T, (h,), -t).T), n // 2))


def kernel_to_weyl(kernel):
    """Invert weyl_to_kernel: Weyl symbol from a sampled kernel."""
    grid = kernel.grid
    h = grid.spacing
    n = grid.points_per_axis
    t = np.arange(n) - n // 2
    # the diagonal slices (t_pos, u_idx), copied to rows, shifted back are
    # G[x_idx, t_pos] transposed, and G's transform along t is the symbol
    sheared = _chirp_multiply(np.ascontiguousarray(_skew(kernel.values, n // 2).T), (h,), t)
    return PhaseSpaceSymbol(grid, ft_along(sheared, 0, h).T, WEYL)


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
    #          = D[j, (j - j') mod N] with D the alternating inverse DFT,
    # freed before OperatorMatrix copies A
    scale, signs = (h / grid.extent) * n, (-1.0) ** np.arange(n)
    return OperatorMatrix(_skew(scale * np.fft.ifft(symbol.values, axis=1) * signs, 0))


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
