import numpy as np
import pytest

from modop import (
    InvalidValue,
    OrderTooHigh,
    PhaseSpaceSymbol,
    TooManyModes,
    UniformGrid,
    bessel_symbol,
    bump_profile,
    constant_symbol,
    gaussian_bump_symbol,
    kn_apply,
    multiplication_symbol,
    random_phase_multiplier,
    s_seminorms,
    sjostrand_norm,
    standard_suite,
    translation_symbol,
    uniform_stream,
)
from modop.symbols import BUMP_RADIUS

import oracles
from conftest import make_bandlimited, rel_err

THRESHOLD_SIZES = {4: 128, 8: 256, 16: 512, 32: 1024}


def test_bump_profile_shape():
    t = np.linspace(-1.0, 1.0, 401)
    vals = bump_profile(t)
    assert vals.max() == 1.0
    assert vals[np.abs(t) >= 0.45].max() == 0.0
    assert np.all(vals >= 0.0)
    assert vals[200] == 1.0  # center


def test_single_mode_is_one_phased_bump():
    grid = UniformGrid(1, 128, 8.0)
    sym = random_phase_multiplier(grid, 0, seed=9)
    xi = grid.axis_frequencies()
    theta = 2.0 * np.pi * uniform_stream(9, 1)[0]
    want = np.exp(1j * theta) * bump_profile(xi)
    assert rel_err(sym.values[0], want) <= 1e-13
    assert np.all(sym.values == sym.values[:1, :])


@pytest.mark.parametrize("extent", [2.0, 4.0, 8.0, 16.0])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_phase_multiplier_matches_summed_bumps_bitwise(n, extent):
    grid = UniformGrid(1, n, extent)
    cap = int(n / (2.0 * extent) - BUMP_RADIUS)
    for modes in sorted({m for m in (0, 1, 4, 8, 16, 32) if m <= cap} | {cap}):
        row = random_phase_multiplier(grid, modes, seed=modes + n).factors[1]
        phases = 2.0 * np.pi * uniform_stream(modes + n, 2 * modes + 1)
        want = oracles.summed_phase_bumps(grid.axis_frequencies(), phases, bump_profile)
        # as uint64 views, so +0 and -0 differ
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), (n, extent, modes)


def test_phase_multiplier_determinism():
    grid = UniformGrid(1, 256, 8.0)
    a = random_phase_multiplier(grid, 8, seed=77)
    b = random_phase_multiplier(grid, 8, seed=77)
    assert np.array_equal(a.values, b.values)
    c = random_phase_multiplier(grid, 8, seed=78)
    assert not np.array_equal(a.values, c.values)


def test_phase_multiplier_sup_is_one():
    for modes, n in THRESHOLD_SIZES.items():
        grid = UniformGrid(1, n, 8.0)
        sym = random_phase_multiplier(grid, modes, seed=3)
        assert abs(np.abs(sym.values).max() - 1.0) <= 1e-12


def test_too_many_modes_guard():
    grid = UniformGrid(1, 512, 16.0)
    with pytest.raises(TooManyModes):
        random_phase_multiplier(grid, 16, seed=0)
    # one fewer mode fits
    random_phase_multiplier(grid, 15, seed=0)


def test_phase_multiplier_seminorms_uniform_in_modes():
    values = {}
    for modes, n in THRESHOLD_SIZES.items():
        grid = UniformGrid(1, n, 8.0)
        sym = random_phase_multiplier(grid, modes, seed=0)
        rep = s_seminorms(sym, m=0.0, rho=0.0, delta=0.0, max_order=2)
        values[modes] = rep.largest()
    band = max(values.values()) / min(values.values())
    assert band <= 2.0
    assert max(values.values()) <= 30.0


def test_seminorms_of_constant():
    grid = UniformGrid(1, 128, 8.0)
    rep = s_seminorms(constant_symbol(grid), m=0.0, rho=0.0, delta=0.0, max_order=2)
    by_order = dict(zip(rep.orders, rep.values))
    assert abs(by_order[(0, 0)] - 1.0) <= 1e-12
    for order, value in by_order.items():
        if order != (0, 0):
            assert value <= 1e-8


def test_seminorms_of_plane_wave():
    grid = UniformGrid(1, 1024, 16.0)
    x = grid.axis_points()[:, None]
    ones = np.ones((1, grid.points_per_axis))
    sym = PhaseSpaceSymbol(grid, np.exp(2j * np.pi * x * 1.0) * ones, "kn")
    rep = s_seminorms(sym, m=0.0, rho=0.0, delta=0.0, max_order=2)
    by_order = dict(zip(rep.orders, rep.values))
    assert abs(by_order[(1, 0)] - 2.0 * np.pi) <= 0.01 * 2.0 * np.pi
    assert abs(by_order[(2, 0)] - (2.0 * np.pi) ** 2) <= 0.01 * (2.0 * np.pi) ** 2


def test_seminorms_of_gaussian_bump_match_analytic():
    grid = UniformGrid(1, 256, 16.0)
    w = 2.0
    sym = gaussian_bump_symbol(grid, width=w)
    rep = s_seminorms(sym, m=0.0, rho=0.0, delta=0.0, max_order=2)
    by_order = dict(zip(rep.orders, rep.values))
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    g = np.exp(-np.pi * (x**2 + xi**2) / w**2)
    analytic = {
        (1, 0): np.abs(2.0 * np.pi * x / w**2 * g).max(),
        (0, 1): np.abs(2.0 * np.pi * xi / w**2 * g).max(),
        (2, 0): np.abs(((2.0 * np.pi * x / w**2) ** 2 - 2.0 * np.pi / w**2) * g).max(),
        (0, 2): np.abs(((2.0 * np.pi * xi / w**2) ** 2 - 2.0 * np.pi / w**2) * g).max(),
        (1, 1): np.abs((2.0 * np.pi / w**2) ** 2 * x * xi * g).max(),
    }
    for order, want in analytic.items():
        assert abs(by_order[order] - want) <= 0.01 * want, order


def test_seminorm_weighting():
    # the report normalizes |D^b sigma| against (1+|xi|)^{m - rho b}, so
    # raising rho amplifies the xi-difference entries by (1+|xi|)^{rho b}
    grid = UniformGrid(1, 256, 8.0)
    sym = random_phase_multiplier(grid, 8, seed=5)
    flat = dict(zip(*(lambda r: (r.orders, r.values))(
        s_seminorms(sym, m=0.0, rho=0.0, delta=0.0, max_order=2))))
    sharpened = dict(zip(*(lambda r: (r.orders, r.values))(
        s_seminorms(sym, m=0.0, rho=1.0, delta=0.0, max_order=2))))
    for order in flat:
        if order[1] > 0:
            assert sharpened[order] >= flat[order] - 1e-12
        else:
            assert sharpened[order] == flat[order]


@pytest.mark.parametrize("n, extent", [(64, 8.0), (128, 12.345), (256, 16.0)])
def test_factored_seminorms_match_the_dense_twin(n, extent):
    # each factor is differenced on its own; the dense twin differences
    # the rounded products a_j b_k, and each difference can grow their
    # eps-sized errors by 1/step, so mixed orders of a symbol with two
    # non-constant factors agree to that scale (2.5e-14 relative for the
    # bump's order (1, 3) at N = 256), the others to 1e-14
    grid = UniformGrid(1, n, extent)
    eps = np.finfo(float).eps
    xi = np.abs(grid.axis_frequencies())
    for name, sigma in standard_suite(grid, seed=4):
        twin = sigma.with_values(sigma.values)
        a, b = sigma.factors
        scale = np.abs(a).max() * np.abs(b).max()
        for max_order in range(5):
            for m, rho, delta in ((0.0, 1.0, 0.0), (-1.0, 0.5, 0.25)):
                fast = s_seminorms(sigma, m, rho, delta, max_order)
                dense = s_seminorms(twin, m, rho, delta, max_order)
                assert fast.orders == dense.orders
                for (alpha, beta), got, want in zip(dense.orders, fast.values, dense.values):
                    weight = ((1.0 + xi) ** (-(m - rho * beta + delta * alpha))).max()
                    growth = grid.spacing**-alpha * grid.dual_spacing**-beta
                    slack = 4.0 * eps * scale * weight * growth if alpha and beta else 0.0
                    assert abs(got - want) <= max(1e-14 * want, slack), (name, alpha, beta)


def test_seminorm_order_guard():
    grid = UniformGrid(1, 64, 8.0)
    with pytest.raises(OrderTooHigh):
        s_seminorms(constant_symbol(grid), max_order=5)


@pytest.mark.parametrize("value", [1.9, 1.0, True, "2", -1])
def test_counts_must_be_integers(value):
    # int() would truncate 1.9 to the one-mode symbol, and True is not a count
    grid = UniformGrid(1, 64, 8.0)
    with pytest.raises(InvalidValue, match="n_modes must be an integer"):
        random_phase_multiplier(grid, value, 0)
    with pytest.raises(InvalidValue, match="max_order must be an integer"):
        s_seminorms(constant_symbol(grid), max_order=value)


def test_counts_accept_numpy_integers():
    grid = UniformGrid(1, 64, 8.0)
    assert random_phase_multiplier(grid, np.int64(2), 0).factors is not None
    assert s_seminorms(constant_symbol(grid), max_order=np.int32(1)).max_order == 1


def test_seminorm_report_accessors():
    grid = UniformGrid(1, 64, 8.0)
    rep = s_seminorms(constant_symbol(grid), m=0.0, rho=0.0, delta=0.0, max_order=1)
    assert rep.value(0, 0) == rep.values[rep.orders.index((0, 0))]
    assert rep.largest() == max(rep.values)
    assert rep.max_order == 1


def test_generator_values_match_dense_construction(default_grid):
    # values derived from the factors equal, bit for bit, the arrays the
    # generators used to build densely
    n = default_grid.points_per_axis
    x = default_grid.axis_points()
    xi = default_grid.axis_frequencies()
    m = 1.0 + 0.5 * np.exp(-np.pi * x**2)
    phases = 2.0 * np.pi * uniform_stream(5, 9)
    row = np.zeros(n, dtype=complex)
    for j, k in enumerate(range(-4, 5)):
        row += np.exp(1j * phases[j]) * bump_profile(xi - k)
    cases = [
        (constant_symbol(default_grid, 2.5), np.full((n, n), 2.5, dtype=complex)),
        (multiplication_symbol(default_grid, m), np.tile(m + 0j, (n, 1)).T),
        (translation_symbol(default_grid, 1.0), np.tile(np.exp(-2j * np.pi * xi), (n, 1))),
        (bessel_symbol(default_grid, -1.0), np.tile((1.0 + xi**2) ** -0.5 + 0j, (n, 1))),
        (random_phase_multiplier(default_grid, 4, seed=5), np.tile(row, (n, 1))),
    ]
    for sym, want in cases:
        assert sym.factors is not None
        got = sym.values
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


def test_standard_suite_contents(default_grid):
    suite = standard_suite(default_grid, seed=0)
    names = [name for name, _ in suite]
    assert names[:5] == ["constant", "multiplication", "translation", "bessel",
                         "gaussian-bump"]
    assert any(name.startswith("phases-") for name in names)
    f = make_bandlimited(default_grid, seed=1)
    by_name = dict(suite)
    out = kn_apply(by_name["constant"], f)
    assert rel_err(out.values, f.values) <= 1e-12


def test_standard_suite_deterministic(default_grid):
    a = standard_suite(default_grid, seed=4)
    b = standard_suite(default_grid, seed=4)
    for (name_a, sym_a), (name_b, sym_b) in zip(a, b):
        assert name_a == name_b
        assert np.array_equal(sym_a.values, sym_b.values)


def test_suite_sjostrand_stable_under_refinement():
    coarse = dict(standard_suite(UniformGrid(1, 64, 8.0), seed=0))
    fine = dict(standard_suite(UniformGrid(1, 128, 8.0), seed=0))
    for name in coarse:
        if name not in fine:
            continue
        a = sjostrand_norm(coarse[name], 0.0)
        b = sjostrand_norm(fine[name], 0.0)
        assert np.isfinite(a) and np.isfinite(b)
        assert abs(a - b) <= 0.10 * max(a, b), name


def test_phase_multiplier_sjostrand_uniform_in_modes():
    vals = []
    for modes, n in THRESHOLD_SIZES.items():
        grid = UniformGrid(1, n, 8.0)
        sym = random_phase_multiplier(grid, modes, seed=0)
        vals.append(sjostrand_norm(sym, 0.0))
    assert max(vals) / min(vals) <= 2.0
