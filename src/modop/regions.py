"""Embedding index functions and exponent-region classification.

Everything here is piecewise arithmetic on the reciprocal scale
u = 1/p, v = 1/q (with u = 0 for p = infinity).  Region labels detect
boundary ties with a 1e-14 tolerance so callers can see when a point
sits on a shared edge; the embedding predicates themselves use the
exact strict or non-strict inequalities of each case with no fuzz, so
pass exact rationals where you can.

The index tau1 governs when a Bessel potential space embeds into a
Wiener amalgam with the same integrability and tau2 the reverse
direction.  Both are read off three branch values, 0, u + v - 1 and
v - 1/2: tau1 is their maximum and tau2 their minimum, and a point's
region (I*1..I*3 for tau1, I1..I3 for tau2) is the branch attaining
it.  They satisfy the duality

    tau1(p, q) = -tau2(p', q')

which the property tests exercise.  The critical Sobolev regularity
for the diagonal problem is sharp_threshold(p, n) = n |1/p - 1/2|,
and hormander_order(p, rho, n) = -n (1 - rho) |1/p - 1/2| is the
borderline operator order on the classical smooth-symbol scale; the
two agree up to sign at rho = 0.
"""

import math
from dataclasses import dataclass

from .errors import InvalidValue
from .exponents import from_p
from .grid import _integer

_TIE_TOL = 1e-14


@dataclass(frozen=True)
class RegionLabel:
    """Which region of the (1/p, 1/q) square a pair falls in.

    family is 'star' (the tau1 partition) or 'plain' (tau2); index is
    the primary region 1..3 (lowest index on ties); boundary holds the
    other region indices whose branch also attains the extreme at the
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


def _check_order(s):
    s = float(s)
    if not math.isfinite(s):
        raise InvalidValue(f"regularity s must be finite, got {s!r}")
    return s


def _label(family, u, v):
    """The region of (u, v): the branch values 0, u + v - 1 and v - 1/2
    that lie within _TIE_TOL of their maximum (star) or minimum (plain),
    the lowest index primary; tau is the primary branch's value."""
    values = (0.0, u + v - 1.0, v - 0.5)
    sign = 1.0 if family == "star" else -1.0
    extreme = max(sign * t for t in values)
    matches = [i for i, t in enumerate(values, start=1) if sign * t >= extreme - _TIE_TOL]
    return RegionLabel(family, matches[0], frozenset(matches[1:]), values[matches[0] - 1])


def region_star(p, q):
    """The tau1-partition region containing (1/p, 1/q)."""
    return _label("star", *_uv(p, q))


def region(p, q):
    """The tau2-partition region containing (1/p, 1/q)."""
    return _label("plain", *_uv(p, q))


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
    n = _integer(n, "dimension n", 1)
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
    n = _integer(n, "dimension n", 1)
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
    """Critical Sobolev order s*(p, n) = n |1/p - 1/2| of the paper's
    claim: every symbol in M^{inf,1} (Sjostrand's class) gives an
    operator bounded from L^p_s to L^p when s >= s*(p, n), and the order
    is sharp for 1 <= p <= inf.  At the endpoints p in {1, inf} the
    default threshold sweep flags its slope at s = s* as
    endpoint-inconclusive: finite resolution cannot settle it."""
    n = _integer(n, "dimension n", 1)
    u = from_p(p).u
    return n * abs(u - 0.5)


def hormander_order(p, rho=0.0, n=1):
    """Borderline operator order -n (1 - rho) |1/p - 1/2| for L^p
    boundedness on the classical (rho, delta) smoothness scale.

    At rho = 0 this is minus sharp_threshold; at rho = 1 it vanishes
    for every p.
    """
    n = _integer(n, "dimension n", 1)
    if not 0.0 <= rho <= 1.0:
        raise InvalidValue(f"rho must lie in [0, 1], got {rho!r}")
    u = from_p(p).u
    return -n * (1.0 - rho) * abs(u - 0.5)
