"""Operator norm computation for discretized operators.

Norms are taken between discrete L^p spaces whose norms carry the
quadrature cells of the two grids,

    ||x||_{L^p(mu)} = (mu * sum |x_i|^p)^(1/p),

so every estimator reduces to the plain ell^p -> ell^p matrix norm
times the scale factor (codomain_measure / domain_measure)^(1/p).

p = 1 and p = infinity have closed forms (max weighted column and row
sums).  p = 2 uses power iteration on A*A.  Other p use Boyd's
nonlinear power method, which climbs the Rayleigh-like quotient
||Ax||_p / ||x||_p and converges to a critical point; since the
iteration can stall below the supremum, results for p not in
{1, 2, inf} are always flagged lower_bound_only and the driver runs a
bundle of deterministic and seeded random starts, keeping the best.

Each algorithm is written once, against apply and adjoint callables.
The public estimators pass products with a dense OperatorMatrix.
sobolev_opnorm passes FFT products when the lifted symbol is rank one,
sigma = a(x) b(xi): its matrix is then A = diag(a) C with C the
circulant whose eigenvalues are b in FFT order, so no N x N matrix is
formed.  Column sums of |A| are a circular correlation of |a| with |c|
(c = ifft of those eigenvalues), row sums are |a| sum|c|, and since
C's singular values are |b|, max|a| max|b| bounds the spectral norm
and equals it when |a| or |b| is constant.
"""

import numpy as np

from ._rng import bulk_rng, derive_seed
from .errors import UnsupportedExponent
from .exponents import from_p
from .quantize import KOHN_NIRENBERG, as_matrix, lift_symbol, u_transform

METHODS = ("exact_1", "exact_inf", "exact_2", "power_2", "boyd_p")

_POWER_CAP = 10**4
_BOYD_CAP = 10**3
_TOL_2 = 1e-10
_TOL_P = 1e-8
_NORM2_SALT = 0x70326E6F
_BOYD_SALT = 0x62647970


class NormEstimate:
    """Result of a norm computation.

    value is the estimate and method one of METHODS: exact_1 and
    exact_inf are the closed-form column and row sums, exact_2 the
    closed form max|a| max|b| for a rank-one symbol whose |a| or |b| is
    constant, power_2 power iteration on A*A and boyd_p Boyd's method.
    iterations and residual describe the final sweep; lower_bound_only
    marks estimates that certify only a lower bound (always true for
    boyd_p, and for power_2 that hit the iteration cap before meeting
    the tolerance).
    """

    __slots__ = ("value", "method", "iterations", "residual", "restarts", "lower_bound_only")

    def __init__(self, value, method, iterations, residual, restarts, lower_bound_only):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "iterations", int(iterations))
        object.__setattr__(self, "residual", float(residual))
        object.__setattr__(self, "restarts", int(restarts))
        object.__setattr__(self, "lower_bound_only", bool(lower_bound_only))

    def __setattr__(self, name, value):
        raise AttributeError("NormEstimate is immutable")

    def __repr__(self):
        tail = ", lower bound" if self.lower_bound_only else ""
        return (
            f"NormEstimate({self.value:.12g}, {self.method}, "
            f"iters={self.iterations}{tail})"
        )


def _scale(matrix, u):
    return (matrix.codomain_measure / matrix.domain_measure) ** u


def _exact(u, column_sums, row_sums, scale):
    """The p = 1 (u = 1) or p = inf (u = 0) norm from the column or row
    sums of |A|, given as callables so only the one needed is computed."""
    if u == 1.0:
        return NormEstimate(scale * column_sums().max(), "exact_1", 0, 0.0, 0, False)
    return NormEstimate(row_sums().max(), "exact_inf", 0, 0.0, 0, False)


def exact_norm(matrix, p):
    """Closed-form operator norm; p must be 1 or infinity."""
    e = from_p(p)
    if e.u not in (0.0, 1.0):
        raise UnsupportedExponent(f"exact_norm handles p in {{1, inf}}, got p={e}")
    a = np.abs(matrix.entries)
    return _exact(e.u, lambda: a.sum(axis=0), lambda: a.sum(axis=1), _scale(matrix, 1.0))


def _power_2(apply, adjoint, n, scale, tol, seed):
    rng = bulk_rng(derive_seed(seed, _NORM2_SALT))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    previous = 0.0
    sigma = 0.0
    residual = np.inf
    for it in range(1, _POWER_CAP + 1):
        w = apply(v)
        sigma = np.linalg.norm(w)
        if sigma == 0.0:
            return NormEstimate(0.0, "power_2", it, 0.0, 0, False)
        v = adjoint(w)
        v /= np.linalg.norm(v)
        residual = abs(sigma - previous)
        if residual < tol:
            return NormEstimate(scale * sigma, "power_2", it, residual, 0, False)
        previous = sigma
    return NormEstimate(scale * sigma, "power_2", _POWER_CAP, residual, 0, True)


def norm_2(matrix, tol=_TOL_2, seed=0):
    """Spectral norm by power iteration on A*A.

    Stops when successive singular-value estimates differ by less than
    tol; if the cap of 10^4 iterations is reached first the best
    estimate is returned flagged lower_bound_only.
    """
    a = matrix.entries
    a_star = a.conj().T
    return _power_2(
        lambda v: a @ v, lambda w: a_star @ w, a.shape[0], _scale(matrix, 0.5), tol, seed
    )


def _psi(values, p):
    """The duality map psi_p(v) = |v|^(p-1) sign(v), with sign(0) = 0."""
    mags = np.abs(values)
    phases = np.divide(values, mags, out=np.zeros_like(values), where=mags > 0)
    return mags ** (p - 1.0) * phases


def _lp(columns, p):
    return (np.abs(columns) ** p).sum(axis=0) ** (1.0 / p)


def _boyd(apply, adjoint, column_sums, e, scale, tol, restarts, seed):
    """Boyd's iteration on the (N, starts) block of start vectors; the
    coordinate start sits at the largest of column_sums."""
    pval = e.p
    pconj = pval / (pval - 1.0)
    n = column_sums.shape[0]
    starts = [np.ones(n, dtype=complex)]
    coord = np.zeros(n, dtype=complex)
    coord[int(np.argmax(column_sums))] = 1.0
    starts.append(coord)
    for r in range(restarts):
        rng = bulk_rng(derive_seed(seed, _BOYD_SALT, r))
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.stack(starts, axis=1)
    x /= _lp(x, pval)[None, :]
    best = 0.0
    iterations = 0
    residual = np.inf
    for it in range(1, _BOYD_CAP + 1):
        y = apply(x)
        gamma = _lp(y, pval)
        top = gamma.max()
        residual = top - best
        iterations = it
        if top > best:
            best = top
        if residual < tol and it > 1:
            break
        z = adjoint(_psi(y, pval))
        x = _psi(z, pconj)
        norms = _lp(x, pval)
        dead = norms == 0.0
        if np.any(dead):
            x[:, dead] = 1.0
            norms = _lp(x, pval)
        x /= norms[None, :]
    # at p = 2 the iteration is the classical power method on A*A and the
    # limit is the true norm; for every other p the value is a lower bound
    return NormEstimate(scale * best, "boyd_p", iterations, residual, restarts, e.u != 0.5)


def norm_p(matrix, p, tol=_TOL_P, restarts=8, seed=0):
    """Boyd's nonlinear power method for the ell^p operator norm.

    Runs a deterministic all-ones start, a coordinate start at the
    heaviest column, and `restarts` seeded random starts, all iterated
    in one batch; keeps the largest quotient reached.  The quotient is
    nondecreasing along the iteration, so the result is always a valid
    lower bound and is flagged as such.
    """
    e = from_p(p)
    if e.u in (0.0, 1.0):
        raise UnsupportedExponent("norm_p needs finite p > 1; use exact_norm")
    a = matrix.entries
    a_star = a.conj().T
    return _boyd(
        lambda x: a @ x,
        lambda z: a_star @ z,
        np.abs(a).sum(axis=0),
        e,
        _scale(matrix, e.u),
        tol,
        restarts,
        seed,
    )


def estimate_norm(matrix, p, tol=None, restarts=8, seed=0):
    """Dispatch to the right estimator for the exponent."""
    e = from_p(p)
    if e.u in (0.0, 1.0):
        return exact_norm(matrix, e)
    if e.u == 0.5:
        return norm_2(matrix, tol=_TOL_2 if tol is None else tol, seed=seed)
    return norm_p(matrix, e, tol=_TOL_P if tol is None else tol, restarts=restarts, seed=seed)


def _rank_one_norm(a, b, e, tol, restarts, seed):
    """The L^p(h) -> L^p(h) norm of the KN operator of a(x) b(xi), which
    is diag(a) C; both measures are h, so the scale is 1 at every p."""
    eig = np.fft.ifftshift(b)
    abs_a = np.abs(a)
    abs_c = np.abs(np.fft.ifft(eig))

    def column_sums():
        # sum_j |a_j| |c_{j - j'}|, a circular correlation of |a| with |c|
        return np.fft.irfft(np.fft.rfft(abs_a) * np.fft.rfft(abs_c).conj(), len(a))

    if e.u in (0.0, 1.0):
        return _exact(e.u, column_sums, lambda: abs_a * abs_c.sum(), 1.0)

    eig_conj = eig.conj()
    a_conj = a.conj()

    # the start vectors of _boyd are the columns of x, so transform x.T,
    # which batches them along axis 0; on a vector .T does nothing
    def apply(x):
        return (a * np.fft.ifft(eig * np.fft.fft(x.T))).T

    def adjoint(y):
        return np.fft.ifft(eig_conj * np.fft.fft(a_conj * y.T)).T

    if e.u != 0.5:
        tol = _TOL_P if tol is None else tol
        return _boyd(apply, adjoint, column_sums(), e, 1.0, tol, restarts, seed)
    abs_b = np.abs(b)
    if np.all(abs_a == abs_a[0]) or np.all(abs_b == abs_b[0]):
        return NormEstimate(abs_a.max() * abs_b.max(), "exact_2", 0, 0.0, 0, False)
    return _power_2(apply, adjoint, len(a), 1.0, _TOL_2 if tol is None else tol, seed)


def sobolev_opnorm(symbol, p, s=0.0, tol=None, restarts=8, seed=0):
    """Estimate the symbol's operator norm from the Sobolev space of
    order s to L^p.

    Composes the operator with the order -s Bessel lift on the symbol
    side, which is exact on the lattice in the Kohn-Nirenberg calculus
    (Weyl symbols are converted first).  A lifted symbol with factors
    takes the matrix-free rank-one path at any N; any other symbol is
    estimated on its dense matrix, limited to N <= 1024.
    """
    if symbol.quantization != KOHN_NIRENBERG:
        symbol = u_transform(symbol, "to_KN")
    lifted = lift_symbol(symbol, -s)
    if lifted.factors is not None:
        return _rank_one_norm(*lifted.factors, from_p(p), tol, restarts, seed)
    return estimate_norm(as_matrix(lifted), p, tol=tol, restarts=restarts, seed=seed)
