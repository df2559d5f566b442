"""Operator norm computation for dense quadrature matrices.

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
"""

import numpy as np

from ._rng import bulk_rng, derive_seed
from .errors import UnsupportedExponent
from .exponents import from_p
from .quantize import KOHN_NIRENBERG, as_matrix, lift_symbol, u_transform

_POWER_CAP = 10**4
_BOYD_CAP = 10**3
_NORM2_SALT = 0x70326E6F
_BOYD_SALT = 0x62647970


class NormEstimate:
    """Result of a norm computation.

    value is the estimate, method one of exact_1, exact_inf, power_2,
    boyd_p.  iterations and residual describe the final sweep;
    lower_bound_only marks estimates that certify only a lower bound
    (always true for boyd_p, and for power_2 that hit the iteration
    cap before meeting the tolerance).
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


def exact_norm(matrix, p):
    """Closed-form operator norm; p must be 1 or infinity."""
    e = from_p(p)
    a = np.abs(matrix.entries)
    if e.u == 1.0:
        value = _scale(matrix, 1.0) * a.sum(axis=0).max()
        return NormEstimate(value, "exact_1", 0, 0.0, 0, False)
    if e.u == 0.0:
        value = a.sum(axis=1).max()
        return NormEstimate(value, "exact_inf", 0, 0.0, 0, False)
    raise UnsupportedExponent(f"exact_norm handles p in {{1, inf}}, got p={e}")


def norm_2(matrix, tol=1e-10, seed=0):
    """Spectral norm by power iteration on A*A.

    Stops when successive singular-value estimates differ by less than
    tol; if the cap of 10^4 iterations is reached first the best
    estimate is returned flagged lower_bound_only.
    """
    a = matrix.entries
    n = a.shape[0]
    rng = bulk_rng(derive_seed(seed, _NORM2_SALT))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    a_star = a.conj().T
    previous = 0.0
    sigma = 0.0
    residual = np.inf
    for it in range(1, _POWER_CAP + 1):
        w = a @ v
        sigma = np.linalg.norm(w)
        if sigma == 0.0:
            return NormEstimate(0.0, "power_2", it, 0.0, 0, False)
        v = a_star @ w
        v /= np.linalg.norm(v)
        residual = abs(sigma - previous)
        if residual < tol:
            return NormEstimate(_scale(matrix, 0.5) * sigma, "power_2", it, residual, 0, False)
        previous = sigma
    return NormEstimate(_scale(matrix, 0.5) * sigma, "power_2", _POWER_CAP, residual, 0, True)


def _psi(values, p):
    """The duality map psi_p(v) = |v|^(p-1) sign(v), with sign(0) = 0."""
    mags = np.abs(values)
    phases = np.divide(values, mags, out=np.zeros_like(values), where=mags > 0)
    return mags ** (p - 1.0) * phases


def _lp(columns, p):
    return (np.abs(columns) ** p).sum(axis=0) ** (1.0 / p)


def norm_p(matrix, p, tol=1e-8, restarts=8, seed=0):
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
    pval = e.p
    pconj = pval / (pval - 1.0)
    a = matrix.entries
    n = a.shape[0]
    starts = [np.ones(n, dtype=complex)]
    heaviest = int(np.argmax(np.abs(a).sum(axis=0)))
    coord = np.zeros(n, dtype=complex)
    coord[heaviest] = 1.0
    starts.append(coord)
    for r in range(restarts):
        rng = bulk_rng(derive_seed(seed, _BOYD_SALT, r))
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.stack(starts, axis=1)
    x /= _lp(x, pval)[None, :]
    a_star = a.conj().T
    best = 0.0
    iterations = 0
    residual = np.inf
    for it in range(1, _BOYD_CAP + 1):
        y = a @ x
        gamma = _lp(y, pval)
        top = gamma.max()
        residual = top - best
        iterations = it
        if top > best:
            best = top
        if residual < tol and it > 1:
            break
        z = a_star @ _psi(y, pval)
        x = _psi(z, pconj)
        norms = _lp(x, pval)
        dead = norms == 0.0
        if np.any(dead):
            x[:, dead] = 1.0
            norms = _lp(x, pval)
        x /= norms[None, :]
    # at p = 2 the iteration is the classical power method on A*A and the
    # limit is the true norm; for every other p the value is a lower bound
    return NormEstimate(
        _scale(matrix, e.u) * best,
        "boyd_p",
        iterations,
        residual,
        restarts,
        e.u != 0.5,
    )


def estimate_norm(matrix, p, tol=None, restarts=8, seed=0):
    """Dispatch to the right estimator for the exponent."""
    e = from_p(p)
    if e.u in (0.0, 1.0):
        return exact_norm(matrix, e)
    if e.u == 0.5:
        return norm_2(matrix, tol=1e-10 if tol is None else tol, seed=seed)
    return norm_p(matrix, e, tol=1e-8 if tol is None else tol, restarts=restarts, seed=seed)


def sobolev_opnorm(symbol, p, s=0.0, tol=None, restarts=8, seed=0):
    """Estimate the symbol's operator norm from the Sobolev space of
    order s to L^p.

    Composes the operator with the order -s Bessel lift on the symbol
    side, which is exact on the lattice in the Kohn-Nirenberg calculus
    (Weyl symbols are converted first), then estimates the L^p -> L^p
    norm of the dense matrix.
    """
    if symbol.quantization != KOHN_NIRENBERG:
        symbol = u_transform(symbol, "to_KN")
    composed = as_matrix(lift_symbol(symbol, -s))
    return estimate_norm(composed, p, tol=tol, restarts=restarts, seed=seed)
