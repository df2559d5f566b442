"""Operator norm computation for discretized operators.

Norms are L^p(h) -> L^p(h): both sides carry the grid cell h, which
cancels from every norm ratio, so each estimator computes the plain
ell^p -> ell^p norm of the operator on raw samples.

p = 1 and p = infinity have closed forms (max column and row sums of
|A|).  p = 2 takes the operator's closed form exact_2 where it has one
and runs power iteration on A*A otherwise.  Other p use Boyd's
nonlinear power method (Boyd, LAA 9, 1974), which climbs the
Rayleigh-like quotient ||Ax||_p / ||x||_p and converges to a critical
point; since the iteration can stall below the supremum, results for p
not in {1, 2, inf} are always flagged lower_bound_only and the driver
runs a bundle of deterministic and seeded random starts, keeping the
best.  Each start is accelerated by Anderson mixing of depth 3 on the
normalized Boyd map (Walker and Ni, SIAM J. Numer. Anal. 49, 2011),
with a safeguard: a mixed vector is taken only if its quotient is at
least the start's current one, else the start takes the plain Boyd step
and forgets its history.  So each start's quotient still never
decreases, and every value returned is a quotient that was reached.
The iteration stops when the best quotient's last increment and the gap
that its rate predicts, increment r / (1 - r) for r the ratio of the
last two increments, are both below 1e-8; that gap is the residual, an
estimate, not a bound.

One dispatch on p, _estimate, is the only place an estimator is
chosen; every entry point hands it the quantize.Operator that
kn_operator builds, whose docstring is the contract the estimators read.
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
_DEPTH = 3
_RIDGE = 1e-12
_TINY = np.finfo(float).tiny
_ROUNDING = 2.0**-48


@dataclass(frozen=True)
class NormEstimate:
    """Result of a norm computation.

    value is the estimate and method the estimator's name: exact_1 and
    exact_inf are the closed-form column and row sums, exact_2 the
    closed form max|a| max|b| for a rank-one symbol with a None factor
    (at p = 2 every entry point reports it wherever it applies),
    power_2 power iteration on A*A and boyd_p Boyd's method.
    iterations and residual describe the final sweep: for power_2 the
    residual is the last change of the estimate, for boyd_p the gap
    to the limit that the rate of the last two increments predicts (an
    estimate, not a bound; 0 or a rounding-level increment when the
    best quotient stopped rising).  lower_bound_only marks estimates
    that certify only a lower bound (always true for boyd_p, and for
    power_2 that hit the iteration cap before meeting the tolerance).
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


def _estimate(e, seed, op):
    """The estimator for the exponent e on the Operator op; only what the
    estimator needs is computed."""
    if e.u == 1.0:
        return NormEstimate(op.column_sums().max(), "exact_1", 0, 0.0, 0, False)
    if e.u == 0.0:
        return NormEstimate(op.row_sums().max(), "exact_inf", 0, 0.0, 0, False)
    if e.u == 0.5:
        if op.exact_2 is not None:
            return NormEstimate(op.exact_2, "exact_2", 0, 0.0, 0, False)
        return _power_2(op, seed)
    return _boyd(op, e, seed)


def exact_norm(matrix, p):
    """Closed-form operator norm; p must be 1 or infinity."""
    e = from_p(p)
    if e.u not in (0.0, 1.0):
        raise UnsupportedExponent(f"exact_norm handles p in {{1, inf}}, got p={e}")
    return _estimate(e, 0, kn_operator(matrix))


def _power_2(op, seed):
    rng = bulk_rng(derive_seed(seed, _NORM2_SALT))
    v = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    previous = 0.0
    sigma = 0.0
    residual = np.inf
    for it in range(1, _POWER_CAP + 1):
        w = op.apply(v)
        sigma = np.linalg.norm(w)
        if sigma == 0.0:
            return NormEstimate(0.0, "power_2", it, 0.0, 0, False)
        v = op.adjoint(w)
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
    return _estimate(from_p(2), seed, kn_operator(matrix))


def _psi(values, mags, e, scale=None, out=None):
    """The duality map psi_p(v) = v |v|^(p-2), 0 where v = 0, given
    mags = |v|, times scale (one factor per row) if one is given.  p = 4
    squares and p = 4/3 takes a cube root, as power_mean does; for p < 2
    the weight is scale over a positive power, left at 0 where |v| = 0."""
    if e.u <= 0.5:
        w = np.square(mags) if e.u == 0.25 else mags ** (e.p - 2.0)
        if scale is not None:
            w *= scale
    else:
        if e.u == 0.75:
            w = np.cbrt(mags)
            w *= w
        else:
            w = mags ** (2.0 - e.p)
        np.divide(1.0 if scale is None else scale, w, out=w, where=w > 0.0)
    return np.multiply(values, w, out=out)


def _boyd(op, e, seed):
    """Boyd's iteration with safeguarded Anderson mixing (Walker and Ni
    2011) of depth _DEPTH on each start.  The starts are the rows of a
    (starts, N) block; the coordinate start sits at the largest column
    sum of |A|."""

    def rows(f, block):
        return np.ascontiguousarray(f(block.T).T)

    ec = e.conjugate
    n = op.n
    k = _RESTARTS + 2
    x = np.zeros((k, n), dtype=complex)
    x[0] = 1.0
    x[1, int(np.argmax(op.column_sums()))] = 1.0
    for r in range(_RESTARTS):
        rng = bulk_rng(derive_seed(seed, _BOYD_SALT, r))
        x[r + 2] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x *= (1.0 / power_mean(np.abs(x), e, 1.0, axis=1))[:, None]
    y = rows(op.apply, x)
    ymag = np.abs(y)
    quotients = power_mean(ymag, e, 1.0, axis=1)
    best = quotients.max()
    # G is the Boyd map x -> psi_p'(A* psi_p(A x)), normalized in ell^p.
    # fg[0] is f = G(x) - x and fg[1] is G(x), on the real view of C^N;
    # history[:, i] holds start i's last _DEPTH differences of both.  A
    # start whose rows are all zero takes the plain step G(x).
    fg = fg_prev = None
    history = np.zeros((2, k, _DEPTH, 2 * n))
    gram = np.zeros((k, _DEPTH, _DEPTH))
    eye = np.eye(_DEPTH)
    fresh = np.ones(k, dtype=bool)  # starts that take no difference this step
    slot = 0
    increment = 0.0
    residual = np.inf
    iterations = 1
    for iterations in range(2, _BOYD_CAP + 1):
        z = rows(op.adjoint, _psi(y, ymag, e))
        zmag = np.abs(z)
        # ||psi_p'(z)||_p = ||z||_p'^(p'-1)
        norms = power_mean(zmag, ec, 1.0, axis=1) ** (ec.p - 1.0)
        dead = norms == 0.0
        norms[dead] = 1.0
        fg_prev, fg = fg, np.empty((2, k, n), dtype=complex)
        g = _psi(z, zmag, ec, (1.0 / norms)[:, None], out=fg[1])
        g[dead] = float(n) ** -e.u  # A maps the start to 0: go on from ones
        f = np.subtract(g, x, out=fg[0])
        step = g
        if not fresh.all():
            np.subtract(fg.view(float), fg_prev.view(float), out=history[:, :, slot])
            history[:, fresh, slot] = 0.0
            d_f = history[0]
            row = np.matmul(d_f, d_f[:, slot, :, None])[..., 0]
            gram[:, slot] = row
            gram[:, :, slot] = row
            # the coefficients c of min ||f - c d_f||, by the normal equations
            ridge = _RIDGE * np.trace(gram, axis1=1, axis2=2) + _TINY
            rhs = np.matmul(d_f, f.view(float)[..., None])
            coef = np.linalg.solve(gram + ridge[:, None, None] * eye, rhs)
            step = g - np.matmul(coef.transpose(0, 2, 1), history[1])[:, 0].view(complex)
            scale = 1.0 / power_mean(np.abs(step), e, 1.0, axis=1)
            scale[fresh] = 1.0  # a fresh start's step is g itself
            step *= scale[:, None]
            slot = (slot + 1) % _DEPTH
        y = rows(op.apply, step)
        ymag = np.abs(y)
        reached = power_mean(ymag, e, 1.0, axis=1)
        # the safeguard: a mixed step that lowers a start's quotient gives
        # way to the plain step, and the start's history is cleared
        fresh = ~(reached >= quotients) & ~fresh
        if fresh.any():
            step[fresh] = g[fresh]
            y[fresh] = rows(op.apply, g[fresh])
            ymag[fresh] = np.abs(y[fresh])
            reached[fresh] = power_mean(ymag[fresh], e, 1.0, axis=1)
            history[:, fresh] = 0.0
            gram[fresh] = 0.0
        x, quotients = step, reached
        top = reached.max()
        previous, increment = increment, max(top - best, 0.0)
        best = max(best, top)
        if increment <= _ROUNDING * best:
            residual = increment
            break
        # at a linear rate r = increment / previous the gap left is about
        # increment r / (1 - r)
        rate = increment / previous if increment < previous else np.inf
        residual = increment * rate / (1.0 - rate) if rate < 1.0 else np.inf
        if increment < _TOL_P and residual < _TOL_P:
            break
    return NormEstimate(best, "boyd_p", iterations, residual, _RESTARTS, True)


def norm_p(matrix, p, seed=0):
    """The ell^p operator norm for finite p > 1.

    p = 2 is norm_2.  Every other p runs Boyd's nonlinear power method
    from a deterministic all-ones start, a coordinate start at the
    heaviest column, and 8 seeded random starts, all iterated in one
    batch with safeguarded Anderson mixing, and keeps the largest
    quotient reached.  The safeguard keeps each start's quotient
    nondecreasing, so the result is always a valid lower bound and is
    flagged as such; its residual is the estimated gap to the limit,
    not a bound.
    """
    e = from_p(p)
    if e.u in (0.0, 1.0):
        raise UnsupportedExponent("norm_p needs finite p > 1; use exact_norm")
    return _estimate(e, seed, kn_operator(matrix))


def estimate_norm(matrix, p, seed=0):
    """Dispatch to the right estimator for the exponent."""
    return _estimate(from_p(p), seed, kn_operator(matrix))


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
