"""Symbol generators and smoothness diagnostics.

The random multiplier family drives the threshold experiments: a sum
of disjoint smooth bumps on the integer frequencies -M..M, each
carrying an independent uniform phase drawn from the seeded stream.
Identical (grid, n_modes, seed) triples reproduce the symbol bit for
bit on every platform.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import uniform_stream
from .errors import OrderTooHigh, TooManyModes
from .grid import bessel_weights
from .quantize import PhaseSpaceSymbol

BUMP_RADIUS = 0.45

_SEMINORM_MAX_ORDER = 4


def bump_profile(t, radius=BUMP_RADIUS):
    """The standard compactly supported bump exp(1 - 1/(1 - (t/r)^2)).

    Smooth, equal to 1 at t = 0, supported in |t| < radius.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < radius
    ratio = np.zeros_like(t)
    ratio[inside] = (t[inside] / radius) ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ratio[inside]))
    return out


def random_phase_multiplier(grid, n_modes, seed, radius=BUMP_RADIUS):
    """Fourier multiplier sum_{|k| <= n_modes} e^{i theta_k} eta(xi - k).

    The bumps must fit inside the frequency window, so n_modes + radius
    cannot exceed N / (2 L); otherwise TooManyModes is raised.  Phases
    are uniform on [0, 2 pi), one stream per (seed), ordered k = -M..M.
    """
    m = int(n_modes)
    if m < 0:
        raise ValueError(f"n_modes must be >= 0, got {n_modes!r}")
    half_window = grid.points_per_axis / (2.0 * grid.extent)
    if m + radius > half_window:
        raise TooManyModes(
            f"n_modes={m} puts bump support past the frequency window "
            f"(need n_modes + {radius:g} <= N/(2L) = {half_window:g})"
        )
    phases = 2.0 * np.pi * uniform_stream(seed, 2 * m + 1)
    xi = grid.axis_frequencies()
    row = np.zeros(grid.points_per_axis, dtype=complex)
    for j, k in enumerate(range(-m, m + 1)):
        row += np.exp(1j * phases[j]) * bump_profile(xi - k, radius)
    return PhaseSpaceSymbol.product(grid, np.ones(grid.points_per_axis), row)


def constant_symbol(grid, value=1.0):
    """sigma(x, xi) = value; quantizes to value * identity."""
    n = grid.points_per_axis
    return PhaseSpaceSymbol.product(grid, np.full(n, value, dtype=complex), np.ones(n))


def multiplication_symbol(grid, m_values):
    """sigma(x, xi) = m(x); quantizes to pointwise multiplication by m."""
    n = grid.points_per_axis
    col = np.asarray(m_values, dtype=complex).ravel()
    if col.shape != (n,):
        raise ValueError(f"m must have {n} samples, got {col.shape}")
    return PhaseSpaceSymbol.product(grid, col, np.ones(n))


def translation_symbol(grid, a):
    """sigma(x, xi) = e^{-2 pi i a xi}; quantizes to f(. - a) for
    lattice a."""
    xi = grid.axis_frequencies()
    return PhaseSpaceSymbol.product(
        grid, np.ones(grid.points_per_axis), np.exp(-2j * np.pi * a * xi)
    )


def bessel_symbol(grid, s):
    """sigma(x, xi) = <xi>^s; quantizes to the Bessel potential."""
    return PhaseSpaceSymbol.product(grid, np.ones(grid.points_per_axis), bessel_weights(grid, s))


def gaussian_bump_symbol(grid, width=1.0):
    """sigma(x, xi) = e^{-pi x^2 / width^2} e^{-pi xi^2 / width^2}, a
    phase-space bump used in smoothness checks."""
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    return PhaseSpaceSymbol.product(
        grid, np.exp(-np.pi * x**2 / width**2), np.exp(-np.pi * xi**2 / width**2)
    )


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


def _central_difference(values, axis, step, order):
    out = np.asarray(values, dtype=complex)
    for _ in range(order):
        out = (np.roll(out, -1, axis=axis) - np.roll(out, 1, axis=axis)) / (2.0 * step)
    return out


def s_seminorms(symbol, m=0.0, rho=1.0, delta=0.0, max_order=2):
    """Estimate symbol-class seminorms by periodic central differences.

    Derivatives up to total order max_order (at most 4; higher orders
    amplify roundoff past usefulness at these grid sizes) are taken
    with wraparound differences, so symbols should decay or be periodic
    across the box edges for the estimates to mean anything.
    """
    if max_order > _SEMINORM_MAX_ORDER:
        raise OrderTooHigh(f"max_order is capped at {_SEMINORM_MAX_ORDER}, got {max_order}")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order!r}")
    grid = symbol.grid
    xi = grid.axis_frequencies()[None, :]
    orders = []
    values = []
    x_cache = {0: np.asarray(symbol.values, dtype=complex)}
    for alpha in range(max_order + 1):
        if alpha not in x_cache:
            x_cache[alpha] = _central_difference(
                x_cache[alpha - 1], 0, grid.spacing, 1
            )
        base = x_cache[alpha]
        current = base
        for beta in range(max_order + 1 - alpha):
            if beta > 0:
                current = _central_difference(current, 1, grid.dual_spacing, 1)
            weight = (1.0 + np.abs(xi)) ** (-(m - rho * beta + delta * alpha))
            orders.append((alpha, beta))
            values.append(float(np.max(np.abs(current) * weight)))
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
    x = grid.axis_points()
    shift = round(1.0 / grid.spacing) * grid.spacing
    suite = [
        ("constant", constant_symbol(grid)),
        ("multiplication", multiplication_symbol(grid, 1.0 + 0.5 * np.exp(-np.pi * x**2))),
        ("translation", translation_symbol(grid, shift)),
        ("bessel", bessel_symbol(grid, -1.0)),
        ("gaussian-bump", gaussian_bump_symbol(grid)),
    ]
    half_window = grid.points_per_axis / (2.0 * grid.extent)
    for m in (4, 8, 16, 32):
        if m + BUMP_RADIUS <= half_window:
            suite.append((f"phases-{m}", random_phase_multiplier(grid, m, seed)))
    return suite
