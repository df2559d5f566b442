"""Embedding index functions and exponent-region classification.

Everything here is piecewise arithmetic on the reciprocal scale
u = 1/p, v = 1/q (with u = 0 for p = infinity).  Region labels detect
boundary ties with a 1e-14 tolerance so callers can see when a point
sits on a shared edge; the embedding predicates themselves use the
exact strict or non-strict inequalities of each case with no fuzz, so
pass exact rationals where you can.

The index tau1 governs when a Bessel potential space embeds into a
Wiener amalgam with the same integrability and tau2 the reverse
direction.  They satisfy the duality

    tau1(p, q) = -tau2(p', q')

which the property tests exercise.  The critical Sobolev regularity
for the diagonal problem is sharp_threshold(p, n) = n |1/p - 1/2|,
and hormander_order(p, rho, n) = -n (1 - rho) |1/p - 1/2| is the
borderline operator order on the classical smooth-symbol scale; the
two agree up to sign at rho = 0.
"""

import math
from dataclasses import dataclass

from .errors import InvalidValue, UnsupportedExponent
from .exponents import from_p

_TIE_TOL = 1e-14


@dataclass(frozen=True)
class RegionLabel:
    """Which region of the (1/p, 1/q) square a pair falls in.

    family is 'star' (the tau1 partition) or 'plain' (tau2); index is
    the primary region 1..3 (lowest index on ties); boundary holds the
    other region indices whose defining inequality also holds at the
    point, and is nonempty only where the adjacent branch formulas
    agree.  tau is the branch value at the point.
    """

    family: str
    index: int
    boundary: frozenset
    tau: float

    @property
    def name(self):
        star = "*" if self.family == "star" else ""
        return f"I{star}{self.index}"

    def __str__(self):
        return f"{self.name} (tau={self.tau:g})"


def _uv(p, q):
    return from_p(p).u, from_p(q).u


def _check_dim(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidValue(f"dimension must be a positive integer, got {n!r}")
    return n


def _check_order(s):
    s = float(s)
    if not math.isfinite(s):
        raise InvalidValue(f"regularity s must be finite, got {s!r}")
    return s


def _star_branches(u, v):
    """(margin, value) per region; the point is inside when margin >= 0."""
    return [
        (min(1.0 - u, 0.5) - v, 0.0),
        (min(v, 0.5) - (1.0 - u), u + v - 1.0),
        (min(1.0 - u, v) - 0.5, v - 0.5),
    ]


def _plain_branches(u, v):
    return [
        (v - max(1.0 - u, 0.5), 0.0),
        ((1.0 - u) - max(v, 0.5), u + v - 1.0),
        (0.5 - max(1.0 - u, v), v - 0.5),
    ]


def _label(branches, family, u, v):
    matches = [i for i, (margin, _) in enumerate(branches, start=1) if margin >= -_TIE_TOL]
    if not matches:
        raise UnsupportedExponent(
            f"no {family} region contains (1/p, 1/q) = ({u:g}, {v:g})"
        )
    primary = matches[0]
    return RegionLabel(
        family, primary, frozenset(matches[1:]), branches[primary - 1][1]
    )


def region_star(p, q):
    """The tau1-partition region containing (1/p, 1/q)."""
    u, v = _uv(p, q)
    return _label(_star_branches(u, v), "star", u, v)


def region(p, q):
    """The tau2-partition region containing (1/p, 1/q)."""
    u, v = _uv(p, q)
    return _label(_plain_branches(u, v), "plain", u, v)


def tau1(p, q):
    """Index of the Sobolev-into-amalgam embedding (0, u+v-1, or v-1/2)."""
    return region_star(p, q).tau


def tau2(p, q):
    """Index of the amalgam-into-Sobolev embedding; tau1(p,q) = -tau2(p',q')."""
    return region(p, q).tau


def embeds_sobolev_into_amalgam(p, q, s, n=1):
    """Whether the Bessel potential space of order s embeds into the
    amalgam with local FL^q regularity and global L^p decay, dimension n.

    The threshold is n * tau1(p, q); whether the threshold itself is
    included depends on the exponent configuration:

      * p = 1:  included only for q = infinity;
      * p > q and q < 2:  excluded;
      * otherwise (p != 1 and max(1/p, 1/2) >= 1/q):  included.
    """
    _check_dim(n)
    u, v = _uv(p, q)
    s = _check_order(s)
    threshold = n * tau1(p, q)
    if u == 1.0:
        if v == 0.0:
            return s >= threshold
        return s > threshold
    if max(u, 0.5) >= v:
        return s >= threshold
    return s > threshold


def embeds_amalgam_into_sobolev(p, q, s, n=1):
    """Whether the amalgam embeds into the Bessel potential space of
    order s, in dimension n; dual to embeds_sobolev_into_amalgam.

    The threshold is n * tau2(p, q), included except when p < q with
    q > 2 (strict), and for p = infinity included only at q = 1.
    """
    _check_dim(n)
    u, v = _uv(p, q)
    s = _check_order(s)
    threshold = n * tau2(p, q)
    if u == 0.0:
        if v == 1.0:
            return s <= threshold
        return s < threshold
    if min(u, 0.5) <= v:
        return s <= threshold
    return s < threshold


def sharp_threshold(p, n=1):
    """Critical Sobolev order s*(p, n) = n |1/p - 1/2| for the diagonal
    problem: below it generic bounded-symbol operators may be unbounded,
    at and above it they are bounded."""
    _check_dim(n)
    u = from_p(p).u
    return n * abs(u - 0.5)


def hormander_order(p, rho=0.0, n=1):
    """Borderline operator order -n (1 - rho) |1/p - 1/2| for L^p
    boundedness on the classical (rho, delta) smoothness scale.

    At rho = 0 this is minus sharp_threshold; at rho = 1 it vanishes
    for every p.
    """
    _check_dim(n)
    if not 0.0 <= rho <= 1.0:
        raise InvalidValue(f"rho must lie in [0, 1], got {rho!r}")
    u = from_p(p).u
    return -n * (1.0 - rho) * abs(u - 0.5)


def conjugate_pair(p, q):
    """The dual exponent pair (p', q') as ExponentValue objects."""
    return from_p(p).conjugate, from_p(q).conjugate
