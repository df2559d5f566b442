"""Operator norm computation for discretized operators.

Norms are L^p(h) -> L^p(h): both sides carry the grid cell h, which
cancels from every norm ratio, so each estimator computes the plain
ell^p -> ell^p norm of the operator on raw samples.

p = 1 and p = infinity have closed forms (max column and row sums of
|A|).  p = 2 takes the operator's closed form exact_2 where it has one
and runs power iteration on A*A otherwise.  Other p use Boyd's
nonlinear power method, which climbs the Rayleigh-like quotient
||Ax||_p / ||x||_p and converges to a critical point; since the
iteration can stall below the supremum, results for p not in
{1, 2, inf} are always flagged lower_bound_only and the driver runs a
bundle of deterministic and seeded random starts, keeping the best.

One dispatch on p, _estimate, is the only place an estimator is
chosen; every entry point hands it the operator as quantize.kn_operator
returns it: its size, apply and adjoint callables, the column and row
sums of |A|, and exact_2, the spectral norm in closed form or None.
An OperatorMatrix and a dense symbol act by their matrix and have no
exact_2.  A rank-one symbol sigma = a(x) b(xi) acts as A = diag(a) C,
C the circulant whose eigenvalues are b in FFT order, applied by FFT,
so no N x N matrix is formed; C's singular values are |b|, so
max|a| max|b| bounds the spectral norm, and it is exact_2 when the
symbol says a factor is identically 1 (its _only), never from values.
"""

from dataclasses import dataclass, fields

import numpy as np

from ._rng import bulk_rng, derive_seed
from .errors import UnsupportedExponent
from .exponents import from_p, power_mean
from .quantize import KOHN_NIRENBERG, kn_operator, lift_symbol, u_transform

_POWER_CAP = 10**4
_BOYD_CAP = 10**3
_TOL_2 = 1e-10
_TOL_P = 1e-8
_RESTARTS = 8
_NORM2_SALT = 0x70326E6F
_BOYD_SALT = 0x62647970


@dataclass(frozen=True)
class NormEstimate:
    """Result of a norm computation.

    value is the estimate and method the estimator's name: exact_1 and
    exact_inf are the closed-form column and row sums, exact_2 the
    closed form max|a| max|b| for a rank-one symbol marked as one of x or
    xi alone (at p = 2 every entry point reports it wherever it applies),
    power_2 power iteration on A*A and boyd_p Boyd's method.
    iterations and residual describe the final sweep; lower_bound_only
    marks estimates that certify only a lower bound (always true for
    boyd_p, and for power_2 that hit the iteration cap before meeting
    the tolerance).
    """

    value: float
    method: str
    iterations: int
    residual: float
    restarts: int
    lower_bound_only: bool

    def __post_init__(self):
        # coerce numpy scalars to the declared float, int and bool
        for f in fields(self):
            object.__setattr__(self, f.name, f.type(getattr(self, f.name)))

    def __repr__(self):
        tail = ", lower bound" if self.lower_bound_only else ""
        return (
            f"NormEstimate({self.value:.12g}, {self.method}, "
            f"iters={self.iterations}{tail})"
        )


def _estimate(e, seed, n, apply, adjoint, column_sums, row_sums, exact_2):
    """The estimator for the exponent e, on an operator given as
    kn_operator returns it; its members are callables so that only what
    the estimator needs is computed."""
    if e.u == 1.0:
        return NormEstimate(column_sums().max(), "exact_1", 0, 0.0, 0, False)
    if e.u == 0.0:
        return NormEstimate(row_sums().max(), "exact_inf", 0, 0.0, 0, False)
    if e.u == 0.5:
        value = exact_2()
        if value is not None:
            return NormEstimate(value, "exact_2", 0, 0.0, 0, False)
        return _power_2(apply, adjoint, n, seed)
    return _boyd(apply, adjoint, column_sums(), e, seed)


def exact_norm(matrix, p):
    """Closed-form operator norm; p must be 1 or infinity."""
    e = from_p(p)
    if e.u not in (0.0, 1.0):
        raise UnsupportedExponent(f"exact_norm handles p in {{1, inf}}, got p={e}")
    return _estimate(e, 0, *kn_operator(matrix))


def _power_2(apply, adjoint, n, seed):
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
        if residual < _TOL_2:
            return NormEstimate(sigma, "power_2", it, residual, 0, False)
        previous = sigma
    return NormEstimate(sigma, "power_2", _POWER_CAP, residual, 0, True)


def norm_2(matrix, seed=0):
    """Spectral norm: exact_2 where the operator has it, else power
    iteration on A*A.

    Power iteration stops when successive singular-value estimates
    differ by less than 1e-10; if the cap of 10^4 iterations is reached
    first the best estimate is returned flagged lower_bound_only.
    """
    return _estimate(from_p(2), seed, *kn_operator(matrix))


def _psi(values, p):
    """The duality map psi_p(v) = |v|^(p-1) sign(v), with sign(0) = 0."""
    mags = np.abs(values)
    phases = np.divide(values, mags, out=np.zeros_like(values), where=mags > 0)
    return mags ** (p - 1.0) * phases


def _boyd(apply, adjoint, column_sums, e, seed):
    """Boyd's iteration on the (N, starts) block of start vectors; the
    coordinate start sits at the largest of column_sums."""
    pval = e.p
    pconj = pval / (pval - 1.0)
    n = column_sums.shape[0]
    starts = [np.ones(n, dtype=complex)]
    coord = np.zeros(n, dtype=complex)
    coord[int(np.argmax(column_sums))] = 1.0
    starts.append(coord)
    for r in range(_RESTARTS):
        rng = bulk_rng(derive_seed(seed, _BOYD_SALT, r))
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.stack(starts, axis=1)
    x /= power_mean(np.abs(x), e, 1.0, axis=0)[None, :]
    best = 0.0
    iterations = 0
    residual = np.inf
    for it in range(1, _BOYD_CAP + 1):
        y = apply(x)
        gamma = power_mean(np.abs(y), e, 1.0, axis=0)
        top = gamma.max()
        residual = top - best
        iterations = it
        if top > best:
            best = top
        if residual < _TOL_P and it > 1:
            break
        z = adjoint(_psi(y, pval))
        x = _psi(z, pconj)
        norms = power_mean(np.abs(x), e, 1.0, axis=0)
        dead = norms == 0.0
        if np.any(dead):
            x[:, dead] = 1.0
            norms = power_mean(np.abs(x), e, 1.0, axis=0)
        x /= norms[None, :]
    return NormEstimate(best, "boyd_p", iterations, residual, _RESTARTS, True)


def norm_p(matrix, p, seed=0):
    """The ell^p operator norm for finite p > 1.

    p = 2 is norm_2.  Every other p runs Boyd's nonlinear power method
    from a deterministic all-ones start, a coordinate start at the
    heaviest column, and 8 seeded random starts, all iterated in one
    batch, and keeps the largest quotient reached.  The quotient is
    nondecreasing along the iteration, so the result is always a valid
    lower bound and is flagged as such.
    """
    e = from_p(p)
    if e.u in (0.0, 1.0):
        raise UnsupportedExponent("norm_p needs finite p > 1; use exact_norm")
    return _estimate(e, seed, *kn_operator(matrix))


def estimate_norm(matrix, p, seed=0):
    """Dispatch to the right estimator for the exponent."""
    return _estimate(from_p(p), seed, *kn_operator(matrix))


def sobolev_opnorm(symbol, p, s=0.0, seed=0):
    """Estimate the symbol's operator norm from the Sobolev space of
    order s to L^p.

    Composes the operator with the order -s Bessel lift on the symbol
    side, which is exact on the lattice in the Kohn-Nirenberg calculus
    (Weyl symbols are converted first), and is estimate_norm of the
    lifted symbol: a symbol with factors is estimated matrix-free at any
    N, any other on its dense matrix, limited to N <= 1024.
    """
    if symbol.quantization != KOHN_NIRENBERG:
        symbol = u_transform(symbol, "to_KN")
    return estimate_norm(lift_symbol(symbol, -s), p, seed)
