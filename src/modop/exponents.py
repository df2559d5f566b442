"""Lebesgue exponents stored by reciprocal.

An exponent p in [1, inf] is represented by u = 1/p in [0, 1], with
u = 0 standing for p = inf.  The reciprocal scale makes the two
operations this package needs exact and total: the conjugate exponent
is 1 - u, and the geometry of embedding regions lives naturally on the
unit square of (1/p, 1/q) pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedExponent


@dataclass(frozen=True)
class ExponentValue:
    """A Lebesgue exponent in [1, inf], held as its reciprocal.

    Attributes
    ----------
    u : float
        Reciprocal 1/p, in [0, 1].  u = 0 encodes p = inf, u = 1
        encodes p = 1.
    """

    u: float

    def __post_init__(self):
        if not (isinstance(self.u, (int, float)) and math.isfinite(self.u)):
            raise UnsupportedExponent(f"reciprocal exponent must be finite, got {self.u!r}")
        if not 0.0 <= self.u <= 1.0:
            raise UnsupportedExponent(f"reciprocal exponent {self.u} outside [0, 1]")
        object.__setattr__(self, "u", float(self.u))

    @property
    def p(self):
        """The exponent as a float, math.inf when u = 0."""
        return math.inf if self.u == 0.0 else 1.0 / self.u

    @property
    def conjugate(self):
        """The Holder conjugate, exact on the reciprocal scale."""
        return ExponentValue(1.0 - self.u)

    @property
    def is_infinite(self):
        return self.u == 0.0

    def __str__(self):
        if self.u == 0.0:
            return "inf"
        p = self.p
        return f"{p:g}" if float(p).is_integer() else f"{p!r}"


def from_p(p):
    """The ExponentValue of p: a number, 'inf', or an 'a/b' string; an
    ExponentValue is returned as it is.  p = inf is spelled 'inf',
    'infinity', 'oo' or math.inf; a bool or any other value that is not
    finite (nan, -inf, '1e309') raises UnsupportedExponent."""
    if isinstance(p, ExponentValue):
        return p
    if isinstance(p, (bool, np.bool_)):
        raise UnsupportedExponent(f"exponent must be a number, got {p!r}")
    if isinstance(p, str):
        text = p.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return ExponentValue(0.0)
        num, slash, den = text.partition("/")
        try:
            value = float(num) / float(den) if slash else float(num)
        except (ValueError, ZeroDivisionError) as exc:
            raise UnsupportedExponent(f"cannot parse exponent {p!r}") from exc
        if not math.isfinite(value):
            raise UnsupportedExponent(f"exponent {p!r} is not finite; write 'inf' for p = inf")
        return from_p(value)
    if p == math.inf:
        return ExponentValue(0.0)
    if not (math.isfinite(p) and p >= 1.0):
        raise UnsupportedExponent(f"exponent must be finite with p >= 1, or inf, got {p}")
    return ExponentValue(1.0 / float(p))


def power_mean(magnitudes, exponent, cell_measure, axis=None):
    """Discrete L^p norm of ``magnitudes`` with quadrature weight ``cell_measure``.

    For finite p this is (cell_measure * sum |a|^p)^(1/p); for p = inf
    it is the maximum.  ``axis`` behaves as in numpy reductions.  The
    powers are taken by the cheapest rule for p: p = 1 sums |a| as it
    is, p = 4 squares twice and p = 4/3 multiplies |a| by its cube root
    (each within an ulp or so of pow, at a fraction of its cost), and
    any other p uses ``**``, which numpy forms by squaring for p = 2.
    """
    e = from_p(exponent)
    if e.is_infinite:
        return magnitudes.max(axis=axis)
    if e.u == 1.0:
        return cell_measure * magnitudes.sum(axis=axis)
    if e.u == 0.25:
        powers = np.square(magnitudes)
        np.square(powers, out=powers)
    elif e.u == 0.75:
        powers = np.cbrt(magnitudes)
        powers *= magnitudes
    else:
        powers = magnitudes**e.p
    return (cell_measure * powers.sum(axis=axis)) ** e.u
