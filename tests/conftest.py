import numpy as np
import pytest

from modop import SampledFunction, UniformGrid


@pytest.fixture(scope="session")
def default_grid():
    return UniformGrid(1, 256, 16.0)


@pytest.fixture(scope="session")
def small_grid():
    return UniformGrid(1, 64, 16.0)


@pytest.fixture(scope="session")
def tiny_grid():
    return UniformGrid(1, 32, 8.0)


@pytest.fixture(scope="session")
def weyl_grid():
    # h = 1/8 resolves unit-width bumps to well below the Nyquist floor,
    # which the half-step conventions of the Weyl path are sensitive to
    return UniformGrid(1, 64, 8.0)


# grids of the bitwise kernel checks: N from 8 to 256, and extents that
# are not powers of two
KERNEL_GRIDS = [(8, 4.0), (64, 7.3), (256, 16.0), (128, 12.345)]


def bits(values):
    """The bit patterns of complex values, for comparing them exactly."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def same_factors(got, want):
    """Whether two symbols' factors agree: None where the other is None,
    the same bits elsewhere."""
    return len(got) == len(want) and all(
        g is w if g is None or w is None else np.array_equal(bits(g), bits(w))
        for g, w in zip(got, want)
    )


def make_bandlimited(grid, seed, modes=8):
    """Random trig polynomial under a Gaussian envelope, well below 1e-12 at the boundary."""
    rng = np.random.default_rng(seed)
    x = grid.axis_points()
    values = np.zeros_like(x, dtype=complex)
    for k in range(-modes, modes + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        values += c * np.exp(2j * np.pi * k * x / grid.extent)
    envelope = np.exp(-np.pi * (x / (grid.extent / 8.0)) ** 2)
    return SampledFunction(grid, values * envelope)


@pytest.fixture(scope="session")
def bandlimited_suite(default_grid):
    return [make_bandlimited(default_grid, seed) for seed in range(20)]


def unit_gaussian(grid):
    x = grid.axis_points()
    return SampledFunction(grid, 2.0**0.25 * np.exp(-np.pi * x**2) + 0j)


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = np.abs(want).max()
    if scale == 0.0:
        return float(np.abs(got).max())
    return float(np.abs(got - want).max() / scale)


def near_degenerate_matrix():
    """Q diag(1, 0.9999, 0.5 .. 0.1) Q^T with Q orthogonal (16 x 16, seed
    0): spectral norm 1, and power iteration creeps towards it at the
    rate 0.9999^2, so it reaches no 1e-10 step before its cap."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))
    d = np.concatenate(([1.0, 0.9999], np.linspace(0.5, 0.1, 14)))
    return (q * d) @ q.T
