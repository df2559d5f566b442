"""Symbol generators and smoothness diagnostics.

The random multiplier family drives the threshold experiments: a sum
of disjoint smooth bumps on the integer frequencies -M..M, each
carrying an independent uniform phase drawn from the seeded stream.
Identical (grid, n_modes, seed) triples reproduce the symbol bit for
bit on every platform.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import uniform_stream
from .errors import InvalidValue, OrderTooHigh, TooManyModes
from .grid import _integer, bessel_weights
from .quantize import PhaseSpaceSymbol

BUMP_RADIUS = 0.45

_SEMINORM_MAX_ORDER = 4


def bump_profile(t):
    """The standard compactly supported bump exp(1 - 1/(1 - (t/r)^2)),
    r = BUMP_RADIUS.

    Smooth, equal to 1 at t = 0, supported in |t| < BUMP_RADIUS.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < BUMP_RADIUS
    ratio = np.zeros_like(t)
    ratio[inside] = (t[inside] / BUMP_RADIUS) ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ratio[inside]))
    return out


def random_phase_multiplier(grid, n_modes, seed):
    """Fourier multiplier sum_{|k| <= n_modes} e^{i theta_k} eta(xi - k).

    The bumps must fit inside the frequency window, so n_modes +
    BUMP_RADIUS cannot exceed N / (2 L); otherwise TooManyModes is
    raised.  Phases are uniform on [0, 2 pi), one stream per (seed),
    ordered k = -M..M.  BUMP_RADIUS < 1/2, so each frequency lies in at
    most one bump, the one at the nearest integer, and the build is O(N).
    """
    m = _integer(n_modes, "n_modes")
    half_window = grid.points_per_axis / (2.0 * grid.extent)
    if m + BUMP_RADIUS > half_window:
        raise TooManyModes(
            f"n_modes={m} puts bump support past the frequency window "
            f"(need n_modes + {BUMP_RADIUS:g} <= N/(2L) = {half_window:g})"
        )
    phases = 2.0 * np.pi * uniform_stream(seed, 2 * m + 1)
    xi = grid.axis_frequencies()
    k = np.rint(xi)
    inside = np.abs(k) <= m
    mode = k[inside]
    term = np.exp(1j * phases[mode.astype(int) + m]) * bump_profile(xi[inside] - mode)
    # adding into zeros gives +0, never -0, where the bump vanishes
    row = np.zeros(grid.points_per_axis, dtype=complex)
    row[inside] += term
    return PhaseSpaceSymbol.product(grid, None, row)


def constant_symbol(grid):
    """sigma(x, xi) = 1; quantizes to the identity."""
    return PhaseSpaceSymbol.product(grid, None, np.ones(grid.points_per_axis))


def multiplication_symbol(grid, m_values):
    """sigma(x, xi) = m(x); quantizes to pointwise multiplication by m."""
    n = grid.points_per_axis
    col = np.asarray(m_values, dtype=complex).ravel()
    if col.shape != (n,):
        raise InvalidValue(f"m must have {n} samples, got {col.shape}")
    return PhaseSpaceSymbol.product(grid, col, None)


def multiplication_profile(grid):
    """m(x) = 1 + exp(-pi x^2) / 2, the standard multiplication symbol's profile."""
    return 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2)


def translation_symbol(grid, a):
    """sigma(x, xi) = e^{-2 pi i a xi}; quantizes to f(. - a) for
    lattice a."""
    xi = grid.axis_frequencies()
    return PhaseSpaceSymbol.product(grid, None, np.exp(-2j * np.pi * a * xi))


def bessel_symbol(grid, s):
    """sigma(x, xi) = <xi>^s; quantizes to the Bessel potential."""
    return PhaseSpaceSymbol.product(grid, None, bessel_weights(grid, s))


def gaussian_bump_symbol(grid):
    """sigma(x, xi) = e^{-pi x^2} e^{-pi xi^2}, a phase-space bump used in
    smoothness checks."""
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    return PhaseSpaceSymbol.product(grid, np.exp(-np.pi * x**2), np.exp(-np.pi * xi**2))


@dataclass(frozen=True)
class SeminormReport:
    """Finite-difference Hormander-class seminorm estimates.

    orders lists the (alpha, beta) = (x-order, xi-order) pairs with
    alpha + beta <= max_order; values[i] estimates

        sup |d_x^alpha d_xi^beta sigma| (1 + |xi|)^(-(m - rho beta + delta alpha))

    so values bounded by a modest constant across orders indicate
    membership in the (m, rho, delta) class at the grid's resolution.
    """

    m: float
    rho: float
    delta: float
    max_order: int
    orders: tuple
    values: tuple

    def value(self, alpha, beta):
        return self.values[self.orders.index((alpha, beta))]

    def largest(self):
        return max(self.values)


def _central_difference(values, axis, step):
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * step)


def _differences(values, axis, step, max_order):
    """values and its central differences along axis, orders 0..max_order."""
    yield values
    for _ in range(max_order):
        values = _central_difference(values, axis, step)
        yield values


def s_seminorms(symbol, m=0.0, rho=1.0, delta=0.0, max_order=2):
    """Estimate symbol-class seminorms by periodic central differences.

    Derivatives up to total order max_order (at most 4; higher orders
    amplify roundoff past usefulness at these grid sizes) are taken
    with wraparound differences, so symbols should decay or be periodic
    across the box edges for the estimates to mean anything.  The
    order m must be finite and rho, delta must lie in [0, 1].

    A symbol built from factors a(x) b(xi) is differenced one factor at
    a time: each estimate is max|d^alpha a| max_xi(|d^beta b| weight),
    O(N) per order where a dense symbol takes O(N^2), equal to the
    dense estimate up to roundoff.
    """
    if _integer(max_order, "max_order") > _SEMINORM_MAX_ORDER:
        raise OrderTooHigh(f"max_order is capped at {_SEMINORM_MAX_ORDER}, got {max_order}")
    if not math.isfinite(m):
        raise InvalidValue(f"order m must be finite, got {m!r}")
    for name, value in (("rho", rho), ("delta", delta)):
        if not 0.0 <= value <= 1.0:
            raise InvalidValue(f"{name} must lie in [0, 1], got {value!r}")
    grid = symbol.grid
    xi = grid.axis_frequencies()
    orders = [(alpha, beta) for alpha in range(max_order + 1) for beta in range(max_order + 1 - alpha)]

    def weight(alpha, beta):
        return (1.0 + np.abs(xi)) ** (-(m - rho * beta + delta * alpha))

    if symbol.factors is None:
        values = [
            float(np.max(np.abs(current) * weight(alpha, beta)))
            for alpha, x_derivative in enumerate(
                _differences(symbol.values, 0, grid.spacing, max_order)
            )
            for beta, current in enumerate(
                _differences(x_derivative, 1, grid.dual_spacing, max_order - alpha)
            )
        ]
    else:
        a, b = symbol._factor_arrays()
        a_sups = [np.max(np.abs(d)) for d in _differences(a, 0, grid.spacing, max_order)]
        b_derivatives = list(_differences(b, 0, grid.dual_spacing, max_order))
        values = [
            float(a_sups[alpha] * np.max(np.abs(b_derivatives[beta]) * weight(alpha, beta)))
            for alpha, beta in orders
        ]
    return SeminormReport(
        float(m), float(rho), float(delta), int(max_order), tuple(orders), tuple(values)
    )


def standard_suite(grid, seed=0):
    """Named symbols exercising the calculus on the given grid.

    Returns (name, symbol) pairs: the constant, a smooth positive
    multiplication symbol, a lattice translation, a Bessel weight, a
    phase-space Gaussian, and every random-phase multiplier whose mode
    count from {4, 8, 16, 32} fits the frequency window.
    """
    shift = round(1.0 / grid.spacing) * grid.spacing
    suite = [
        ("constant", constant_symbol(grid)),
        ("multiplication", multiplication_symbol(grid, multiplication_profile(grid))),
        ("translation", translation_symbol(grid, shift)),
        ("bessel", bessel_symbol(grid, -1.0)),
        ("gaussian-bump", gaussian_bump_symbol(grid)),
    ]
    half_window = grid.points_per_axis / (2.0 * grid.extent)
    for m in (4, 8, 16, 32):
        if m + BUMP_RADIUS <= half_window:
            suite.append((f"phases-{m}", random_phase_multiplier(grid, m, seed)))
    return suite
