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
taking N^2 complex exponentials of arguments up to pi N / 4.  The
chirp commutes with the half-period shift that centers the lattice, so
_chirp_multiply runs plain FFTs in place on its caller's work array.

Kernels: the Weyl symbol and the Schwartz kernel K determine each other
through the shear tau K(x, y) = K(x + y/2, x - y/2) followed by a
Fourier transform in y.  On the periodic grid the slice at fixed
difference t = x - y is an exact lattice gather, so the shear needs
interpolation only for the half-step t/2, again done spectrally, along
x of the sheared kernel G[x, t].  One layout, _skew, holds the
diagonals of the kernel (from its slices D[u, t] at shift N/2, and
back, being its own inverse) and of as_matrix (from its difference
table at shift 0).  _skew permutes each row within itself, in place,
a block of rows at a time.  So u_transform, weyl_to_kernel,
kernel_to_weyl and as_matrix each transform, chirp and skew one work
array in place, and the symbol, kernel or matrix they return adopts
that array (grid._Owned) instead of copying it.

Operators: kn_operator is the one place that says which operator a
Kohn-Nirenberg symbol denotes, as an Operator record; kn_apply uses its
apply, and every norm estimator in opnorm reads it.
"""

import functools
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FileFormatError, GridMismatch, InvalidValue, TooLarge, WrongQuantization
from .grid import (
    SampledFunction,
    UniformGrid,
    _centered,
    _frozen,
    _Owned,
    _read_samples,
    _write_samples,
    bessel_weights,
    ift_along,
)

KOHN_NIRENBERG = "kn"
WEYL = "weyl"

_MATRIX_LIMIT = 1024
# entries a chirp block of _chirp_multiply or a gather of _skew forms at
# once (256 KiB), so neither holds an N x N temporary beside its work array
_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class PhaseSpaceSymbol:
    """Samples sigma(x_j, xi_k) with a quantization tag.

    values has shape (N, N): rows indexed by the spatial lattice,
    columns by the dual lattice.

    factors says what the symbol is, and fast paths read it, never values:
    None (dense), (a, b) (a(x) b(xi)), (a, None) (a multiplication) or
    (None, b) (a multiplier), a None factor being identically 1 ((None,
    None) is stored as (None, ones)); values is then np.outer(a, b), cached.
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
            b = np.ones(shape) if a is None and b is None else b
            factors = tuple(None if f is None else _frozen(f, shape, "factor") for f in (a, b))
            object.__setattr__(self, "factors", factors)
            object.__setattr__(self, "_values", None)

    @classmethod
    def product(cls, grid, a, b, quantization=KOHN_NIRENBERG):
        """The rank-one symbol a[j] b[k]; a factor given as None is identically 1."""
        return cls(grid, None, quantization, factors=(a, b))

    def _factor_arrays(self):
        """factors with ones in place of a None factor."""
        return tuple(np.ones(self.grid.shape, dtype=complex) if f is None else f for f in self.factors)

    @property
    def values(self):
        if self._values is None:
            values = np.outer(*self._factor_arrays())
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
        if n == 0:
            raise InvalidValue("an operator matrix must not be empty")


def _require_tag(symbol, tag):
    if symbol.quantization != tag:
        raise WrongQuantization(f"expected a {tag!r} symbol, got {symbol.quantization!r}")


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear operator A on C^n, as every norm estimator in opnorm reads
    it: apply and adjoint take a vector or an (n, k) block and return
    A x and A* y; column_sums and row_sums return the column and row sums
    of |A|, paying for them only when called; exact_2 is the spectral
    norm in closed form, or None where A has none."""

    n: int
    apply: Callable
    adjoint: Callable
    column_sums: Callable
    row_sums: Callable
    exact_2: float | None


def kn_operator(source):
    """The Operator of an OperatorMatrix or of a Kohn-Nirenberg symbol: a
    symbol with factors is _rank_one_operator, any other its as_matrix,
    N <= 1024.  A matrix has no exact_2."""
    if isinstance(source, PhaseSpaceSymbol):
        _require_tag(source, KOHN_NIRENBERG)
        if source.factors is not None:
            return _rank_one_operator(source)
        source = as_matrix(source)
    a = source.entries
    # the conjugate is formed on the first adjoint call, once per operator
    a_star = functools.cache(lambda: a.conj().T)
    return Operator(len(a), lambda x: a @ x, lambda z: a_star() @ z,
                    lambda: np.abs(a).sum(axis=0), lambda: np.abs(a).sum(axis=1), None)


def _circulant(rows, eigenvalues):
    """The circulant with these eigenvalues (FFT order) along the last
    axis of rows, in place on one work array; each product keeps its
    operand order, so the bits are those of eigenvalues * fft(rows)."""
    work = np.fft.fft(rows)
    np.multiply(eigenvalues, work, out=work)
    return np.fft.ifft(work, out=work)


def _rank_one_operator(symbol):
    """kn_operator of a symbol with factors (a, b), applied by FFT at any
    N: diag(a) C, C the circulant whose eigenvalues are b in FFT order
    (the centering shifts and cell measures of forward_ft and inverse_ft
    cancel around a Fourier multiplier).  C's singular values are |b|
    and each of its rows and columns sums in |.| to sum|c|, c = ifft of
    the eigenvalues.  A None factor is identically 1 and is not applied:
    a multiplication (a, None) is diag(a), its sums |a| and exact_2
    max|a|; a multiplier (None, b) is C, its sums sum|c| and exact_2
    max|b|; a product's row sums are |a| sum|c|, its column sums a
    circular correlation of |a| with |c|, and it has no exact_2."""
    n = symbol.grid.points_per_axis
    a, b = symbol.factors
    # conjugates are formed on the first adjoint, once per operator; x.T
    # batches a block's columns along axis 0, and a vector is unchanged
    a_conj = None if a is None else functools.cache(a.conj)
    if b is None:
        return Operator(n, lambda x: (a * x.T).T, lambda y: (a_conj() * y.T).T,
                        lambda: np.abs(a), lambda: np.abs(a), float(np.abs(a).max()))
    eig = np.concatenate((b[n // 2:], b[:n // 2]))  # ifftshift(b), without np.roll's overhead
    eig_conj = functools.cache(eig.conj)

    def abs_c():  # b's half-period shift signs c by (-1)^j, which |.| drops to the bit
        return np.abs(np.fft.ifft(b))

    if a is None:
        def sums():  # every row and every column of C
            return np.full(n, abs_c().sum())

        return Operator(n, lambda x: _circulant(x.T, eig).T,
                        lambda y: _circulant(y.T, eig_conj()).T, sums, sums, float(np.abs(b).max()))

    def apply(x):
        work = _circulant(x.T, eig)
        return np.multiply(a, work, out=work).T  # the bits of a * ifft(...)

    def column_sums():  # sum_j |a_j| |c_{j - j'}|
        return np.fft.irfft(np.fft.rfft(np.abs(a)) * np.fft.rfft(abs_c()).conj(), n)

    return Operator(n, apply, lambda y: _circulant(a_conj() * y.T, eig_conj()).T,
                    column_sums, lambda: np.abs(a) * abs_c().sum(), None)


def kn_apply(symbol, f):
    """Apply the Kohn-Nirenberg operator of the symbol to f: the apply of
    its kn_operator, so O(N log N) for a symbol with factors and a
    product with its as_matrix (N <= 1024) for any other."""
    if symbol.grid != f.grid:
        raise GridMismatch("symbol and function live on different grids")
    return SampledFunction(f.grid, kn_operator(symbol).apply(f.values))


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


def _chirp_multiply(work, spacings, a, b):
    """In place on the complex centered-lattice array work, shape (N, m):
    transform along its leading axes (one forward transform per spacing,
    as in ft_along), multiply entry [r, c] by the chirp e^{i pi a[r] b[c]
    / N}, and transform back as in ift_along.  Returns work.

    The chirp commutes with the half-period shift that centers each
    axis, so plain FFTs equal ift_along(ft_along(work) * the centered
    chirp), axis by axis, to the bit at power-of-two N.  The chirp is the
    root of unity at (a[r] b[c]) mod 2N, formed a block of rows at a
    time, and the scale back is a multiply by 1 / spacing, as in
    ift_along.
    """
    n = len(work)
    for axis, spacing in enumerate(spacings):
        np.fft.fft(work, axis=axis, out=work)
        work *= spacing
    roots = _roots(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        index = np.multiply.outer(a[start:start + rows], b)
        index %= 2 * n
        work[start:start + rows] *= roots[index]
    for axis, spacing in enumerate(spacings):
        np.fft.ifft(work, axis=axis, out=work)
        work *= 1.0 / spacing
    return work


def u_transform(symbol, direction):
    """Convert between Weyl and Kohn-Nirenberg symbols of one operator.

    direction is 'to_KN' (input must be Weyl) or 'to_Weyl' (input must
    be KN).  The conversion multiplies the symbol's two-dimensional
    transform by e^{+/- pi i omega u} (the chirp e^{+/- pi i j k / N} in
    the signed indices of omega and u) and flips the tag.  The two
    directions are inverses up to roundoff.
    """
    if direction == "to_KN":
        _require_tag(symbol, WEYL)
        sign, new_tag = 1, KOHN_NIRENBERG
    elif direction == "to_Weyl":
        _require_tag(symbol, KOHN_NIRENBERG)
        sign, new_tag = -1, WEYL
    else:
        raise InvalidValue(f"direction must be 'to_KN' or 'to_Weyl', got {direction!r}")
    if any(f is None for f in symbol.factors or ()):  # the chirp is 1 on a symbol of x or xi alone
        return replace(symbol, quantization=new_tag)
    return PhaseSpaceSymbol(symbol.grid, _u_chirp(symbol, sign).view(_Owned), new_tag)


def _u_chirp(symbol, sign):
    """A C-order copy of the symbol's values with the u_transform chirp
    of the given sign applied (+1: Weyl to Kohn-Nirenberg)."""
    grid = symbol.grid
    k = _signed(grid.points_per_axis)
    work = np.array(symbol.values, dtype=complex, order="C")
    return _chirp_multiply(work, (grid.spacing, grid.dual_spacing), sign * k, k)


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
        return replace(symbol, factors=(a, weights if b is None else b * weights))
    return symbol.with_values(symbol.values * weights[None, :])


def _skew(values, shift):
    """Permute the square array values in place so that entry [j, m]
    becomes values[j, (j - m + shift) % N]: row j is reversed and rolled
    by j + shift + 1.  It moves values, does no arithmetic and is its own
    inverse.  Each row stays in its row, so a block of r rows starting at
    row j0 is gathered once into N + r columns, row j holding
    values[j, (j0 + r - 1 + shift - c) % N] at column c, and read back in
    rows of N + r - 1 that start row j at column j0 + r - 1 - j.  Returns
    values."""
    n = len(values)
    rows = max(1, _BLOCK_ENTRIES // (2 * n))
    for start in range(0, n, rows):
        block = values[start:start + rows]
        r = len(block)
        gathered = np.take(block, (start + r - 1 + shift - np.arange(n + r)) % n, axis=1)
        block[...] = gathered.reshape(-1)[r - 1:r - 1 + r * (n + r - 1)].reshape(r, -1)[:, :n]
    return values


def weyl_to_kernel(symbol):
    """The Schwartz kernel of the Weyl operator of the symbol."""
    _require_tag(symbol, WEYL)
    grid = symbol.grid
    n = grid.points_per_axis
    h = grid.spacing
    t = np.arange(n) - n // 2
    # sheared kernel G(x, t) = K(x + t h/2, x + t h/2 - t h) for the
    # centered difference t; its y-transform is the symbol, so invert it
    # (G[x_idx, t_pos]), shift each t column along x to the diagonal slice
    # D_t(u) = K(u, u - t h) = G(u - t h/2, t), [u_idx, t_pos], and K is
    # _skew of D, all in one array
    work = ift_along(symbol.values, 1, h)
    _chirp_multiply(work, (h,), _signed(n), -t)
    return KernelRep(grid, _skew(work, n // 2).view(_Owned))


def kernel_to_weyl(kernel):
    """Invert weyl_to_kernel: Weyl symbol from a sampled kernel."""
    grid = kernel.grid
    h = grid.spacing
    n = grid.points_per_axis
    t = np.arange(n) - n // 2
    # the diagonal slices [u_idx, t_pos], shifted back along u, are
    # G[x_idx, t_pos], and G's transform along t is the symbol
    work = _skew(np.array(kernel.values, order="C"), n // 2)
    _chirp_multiply(work, (h,), _signed(n), t)
    return PhaseSpaceSymbol(grid, _centered(work, 1, np.fft.fft, h).view(_Owned), WEYL)


def as_matrix(symbol):
    """Dense matrix of the quantized operator, N <= 1024.

    The matrix acts on raw samples.  Domain and codomain both carry the
    grid cell h, which cancels from every L^p(h) -> L^p(h) norm ratio.
    """
    grid = symbol.grid
    n = grid.points_per_axis
    if n > _MATRIX_LIMIT:
        raise TooLarge(f"as_matrix is limited to N <= {_MATRIX_LIMIT}, got {n}")
    h = grid.spacing
    # A[j, j'] = (h/L) sum_k sigma[j, k] e^{2 pi i xi_k (x_j - x_j')}
    #          = D[j, (j - j') mod N] with D the alternating inverse DFT of
    # the Kohn-Nirenberg symbol sigma (a Weyl symbol's u_transform)
    if symbol.quantization == WEYL:
        work = _u_chirp(symbol, 1)
        np.fft.ifft(work, axis=1, out=work)
    else:
        work = np.fft.ifft(symbol.values, axis=1)
    work *= (h / grid.extent) * n
    work *= (-1.0) ** np.arange(n)
    return OperatorMatrix(_skew(work, 0).view(_Owned))


def write_pss(symbol, path):
    """Write a PhaseSpaceSymbol as a PSS v2 text file: magic line
    ``PSS 2``, header fields ``quant=<kn|weyl> factors=<0|1|x|xi>`` after
    extent, then for factors=1 (a product) 2N sample lines, a then b, for
    x or xi (a symbol of that variable alone) that factor's N lines, and
    for factors=0 (any other symbol) its N^2 values in x-major order."""
    a, b = symbol.factors or (None, None)
    held = [f for f in (a, b) if f is not None]
    factors = "0" if not held else "xi" if a is None else "x" if b is None else "1"
    values = np.concatenate(held) if held else symbol.values
    extra = f" quant={symbol.quantization} factors={factors}"
    _write_samples(path, "PSS 2", symbol.grid, extra, values)


def read_pss(path):
    """Read a PSS v2 file back into a PhaseSpaceSymbol: factors=0 dense,
    1, x or xi by PhaseSpaceSymbol.product, the factor not held None."""

    def shape(header, grid):
        if header["quant"] not in (KOHN_NIRENBERG, WEYL):
            raise FileFormatError(f"{path}: quant must be 'kn' or 'weyl', got {header['quant']!r}")
        if header["factors"] not in ("0", "1", "x", "xi"):
            raise FileFormatError(f"{path}: factors must be 0, 1, x or xi, got {header['factors']!r}")
        n = grid.points_per_axis
        return {"0": (n, n), "1": (2, n)}.get(header["factors"], (1, n))

    header, grid, values = _read_samples(path, "PSS 2", ["quant", "factors"], shape)
    if header["factors"] == "0":
        return PhaseSpaceSymbol(grid, values, header["quant"])
    a, b = {"1": values, "x": (values[0], None), "xi": (None, values[0])}[header["factors"]]
    return PhaseSpaceSymbol.product(grid, a, b, header["quant"])
