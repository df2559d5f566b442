import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modop import (
    GridMismatch,
    KernelRep,
    NormEstimate,
    OperatorMatrix,
    PhaseSpaceSymbol,
    SampledFunction,
    TooLarge,
    UniformGrid,
    WrongQuantization,
    as_matrix,
    bessel_potential,
    bessel_symbol,
    constant_symbol,
    estimate_norm,
    forward_ft,
    gaussian_bump_symbol,
    kernel_to_weyl,
    kn_apply,
    lift_symbol,
    multiplication_symbol,
    read_pss,
    s_seminorms,
    sjostrand_norm,
    standard_suite,
    translate,
    translation_symbol,
    u_transform,
    weyl_apply,
    weyl_to_kernel,
    write_pss,
)

from modop import cli, quantize
from modop.grid import bessel_weights, ft_along, ift_along

import oracles
from conftest import KERNEL_GRIDS, bits, make_bandlimited, rel_err, same_factors


def random_symbol(grid, seed, quantization="kn"):
    """Smooth random symbol decaying in both variables."""
    rng = np.random.default_rng(seed)
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    values = np.zeros((grid.points_per_axis, grid.points_per_axis), dtype=complex)
    for _ in range(6):
        cx, cxi = rng.uniform(-1.5, 1.5, 2)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        values += amp * np.exp(-np.pi * ((x - cx) ** 2 + (xi - cxi) ** 2))
    return PhaseSpaceSymbol(grid, values, quantization)


# ---------------------------------------------------------------------------
# Kohn-Nirenberg quantization


def test_kn_constant_is_identity(default_grid):
    f = make_bandlimited(default_grid, seed=1)
    out = kn_apply(constant_symbol(default_grid), f)
    assert rel_err(out.values, f.values) <= 1e-12
    # two None factors are the constant, kept as a multiplier of ones
    one = PhaseSpaceSymbol.product(default_grid, None, None)
    assert same_factors(one.factors, constant_symbol(default_grid).factors)


def test_kn_multiplication_symbol(default_grid):
    f = make_bandlimited(default_grid, seed=2)
    x = default_grid.axis_points()
    m = 1.0 + 0.5 * np.exp(-np.pi * x**2)
    out = kn_apply(multiplication_symbol(default_grid, m), f)
    assert rel_err(out.values, m * f.values) <= 1e-12


def test_kn_translation_symbol(default_grid):
    f = make_bandlimited(default_grid, seed=3)
    a = 8 * default_grid.spacing
    out = kn_apply(translation_symbol(default_grid, a), f)
    assert rel_err(out.values, translate(f, a).values) <= 1e-10


def test_kn_bessel_symbol(default_grid):
    f = make_bandlimited(default_grid, seed=4)
    s = -1.3
    out = kn_apply(bessel_symbol(default_grid, s), f)
    assert rel_err(out.values, bessel_potential(f, s).values) <= 1e-10


def test_kn_matches_direct_quadrature(tiny_grid):
    sigma = random_symbol(tiny_grid, seed=21)
    f = make_bandlimited(tiny_grid, seed=22, modes=4)
    got = kn_apply(sigma, f)
    want = oracles.direct_kn_apply(sigma.values, f.values, tiny_grid)
    assert rel_err(got.values, want) <= 1e-12


def test_kn_linearity(small_grid):
    s1 = random_symbol(small_grid, 31)
    s2 = random_symbol(small_grid, 32)
    f = make_bandlimited(small_grid, 33)
    combined = s1.with_values(2.0 * s1.values - 1j * s2.values)
    lhs = kn_apply(combined, f).values
    rhs = 2.0 * kn_apply(s1, f).values - 1j * kn_apply(s2, f).values
    assert rel_err(lhs, rhs) <= 1e-13


def test_kn_factored_matches_dense_twin(default_grid):
    f = make_bandlimited(default_grid, seed=7)
    block = np.stack([make_bandlimited(default_grid, seed).values for seed in (8, 9)], axis=1)
    for name, sigma in standard_suite(default_grid, seed=0):
        assert sigma.factors is not None, name
        dense = sigma.with_values(sigma.values)
        assert dense.factors is None
        got = kn_apply(sigma, f).values
        assert rel_err(got, kn_apply(dense, f).values) <= 1e-12, name
        # the FFT operator's adjoint, sums of |A| and closed-form spectral
        # norm against the twin's matrix
        op, dense_op = quantize.kn_operator(sigma), quantize.kn_operator(dense)
        assert rel_err(op.adjoint(block), dense_op.adjoint(block)) <= 1e-12, name
        assert rel_err(op.column_sums(), dense_op.column_sums()) <= 1e-12, name
        assert rel_err(op.row_sums(), dense_op.row_sums()) <= 1e-12, name
        assert dense_op.exact_2 is None
        if op.exact_2 is not None:
            spectral = np.linalg.norm(quantize.as_matrix(dense).entries, 2)
            assert rel_err(op.exact_2, spectral) <= 1e-12, name


def test_kn_factored_skips_dense_apply_limit():
    # a dense symbol applies through as_matrix, which raises TooLarge past 1024
    grid = UniformGrid(1, 4096, 64.0)
    f = make_bandlimited(grid, seed=8)
    out = kn_apply(bessel_symbol(grid, -1.3), f)
    assert rel_err(out.values, bessel_potential(f, -1.3).values) <= 1e-10


def test_kn_guards(default_grid, tiny_grid):
    f = make_bandlimited(tiny_grid, seed=0)
    with pytest.raises(GridMismatch):
        kn_apply(constant_symbol(default_grid), f)
    weyl = PhaseSpaceSymbol(tiny_grid, constant_symbol(tiny_grid).values, "weyl")
    with pytest.raises(WrongQuantization):
        kn_apply(weyl, make_bandlimited(tiny_grid, seed=0))
    with pytest.raises(WrongQuantization):
        weyl_apply(constant_symbol(tiny_grid), make_bandlimited(tiny_grid, seed=0))
    # <xi>^s times a Weyl symbol is not its operator composed with <D>^s
    with pytest.raises(WrongQuantization):
        lift_symbol(weyl, 0.7)
    with pytest.raises(WrongQuantization, match="unknown quantization tag 'wey'"):
        PhaseSpaceSymbol(tiny_grid, weyl.values, "wey")


# ---------------------------------------------------------------------------
# Weyl quantization and the intertwining transform


def test_weyl_constant_is_identity(default_grid):
    sigma = PhaseSpaceSymbol(
        default_grid, constant_symbol(default_grid).values, "weyl"
    )
    f = make_bandlimited(default_grid, seed=5)
    out = weyl_apply(sigma, f)
    assert rel_err(out.values, f.values) <= 1e-12


def test_weyl_equals_kn_for_x_independent(default_grid):
    values = np.tile(
        (1.0 + default_grid.axis_frequencies() ** 2) ** -1.0 + 0j,
        (default_grid.points_per_axis, 1),
    )
    f = make_bandlimited(default_grid, seed=6)
    kn_out = kn_apply(PhaseSpaceSymbol(default_grid, values, "kn"), f)
    weyl_out = weyl_apply(PhaseSpaceSymbol(default_grid, values, "weyl"), f)
    assert rel_err(weyl_out.values, kn_out.values) <= 1e-12


def test_weyl_matches_direct_quadrature(weyl_grid):
    sigma = random_symbol(weyl_grid, seed=41, quantization="weyl")
    f = make_bandlimited(weyl_grid, seed=42, modes=6)
    got = weyl_apply(sigma, f)
    want = oracles.direct_weyl_apply(sigma.values, f.values, weyl_grid)
    assert rel_err(got.values, want) <= 1e-8


def test_u_transform_fixes_x_independent(default_grid):
    values = np.tile(
        np.exp(-np.pi * default_grid.axis_frequencies() ** 2) + 0j,
        (default_grid.points_per_axis, 1),
    )
    sigma = PhaseSpaceSymbol(default_grid, values, "weyl")
    out = u_transform(sigma, "to_KN")
    assert out.quantization == "kn"
    assert rel_err(out.values, values) <= 1e-12


def test_u_transform_roundtrip(default_grid):
    sigma = random_symbol(default_grid, seed=51, quantization="weyl")
    back = u_transform(u_transform(sigma, "to_KN"), "to_Weyl")
    assert back.quantization == "weyl"
    assert rel_err(back.values, sigma.values) <= 1e-12


def test_u_transform_matches_direct_multiplier(tiny_grid):
    x = tiny_grid.axis_points()[:, None]
    xi = tiny_grid.axis_frequencies()[None, :]
    values = np.exp(-np.pi * (x**2 + xi**2)) + 0j
    sigma = PhaseSpaceSymbol(tiny_grid, values, "weyl")
    got = u_transform(sigma, "to_KN")
    want = oracles.direct_u_multiplier(values, tiny_grid, sign=+1)
    assert rel_err(got.values, want) <= 1e-10
    sigma_kn = PhaseSpaceSymbol(tiny_grid, values, "kn")
    got_back = u_transform(sigma_kn, "to_Weyl")
    want_back = oracles.direct_u_multiplier(values, tiny_grid, sign=-1)
    assert rel_err(got_back.values, want_back) <= 1e-10


@pytest.mark.parametrize("quantization, direction", [("weyl", "to_KN"), ("kn", "to_Weyl")])
def test_u_transform_keeps_the_one_variable_mark(quantization, direction):
    # the chirp is 1 on a symbol of x or xi alone: it comes back with its
    # factors, the None one still None, as the dense transform of its twin
    # gives to roundoff, and a round trip keeps them
    grid = UniformGrid(1, 64, 8.0)
    rng = np.random.default_rng(59)
    c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    back_direction = "to_Weyl" if direction == "to_KN" else "to_KN"
    for a, b in ((None, c), (c, None)):
        sigma = PhaseSpaceSymbol.product(grid, a, b, quantization)
        out = u_transform(sigma, direction)
        assert out.quantization != quantization
        assert same_factors(out.factors, sigma.factors)
        dense = u_transform(sigma.with_values(sigma.values), direction)
        assert dense.factors is None
        assert np.abs(out.values - dense.values).max() <= 1e-14 * np.abs(dense.values).max()
        back = u_transform(out, back_direction)
        assert back.quantization == quantization
        assert same_factors(back.factors, sigma.factors)


def test_u_transform_of_a_product_is_that_of_its_dense_twin(weyl_grid):
    # a product of two non-constant factors takes the dense chirp, in both
    # directions, on the same values as its twin
    bump = gaussian_bump_symbol(weyl_grid)
    for quantization, direction in (("kn", "to_Weyl"), ("weyl", "to_KN")):
        sigma = replace(bump, quantization=quantization)
        got = u_transform(sigma, direction)
        want = u_transform(sigma.with_values(sigma.values), direction)
        assert got.factors is None
        assert np.array_equal(bits(got.values), bits(want.values))


def test_u_transform_direction_validation(default_grid):
    sigma = random_symbol(default_grid, seed=52, quantization="weyl")
    with pytest.raises(WrongQuantization):
        u_transform(sigma, "to_Weyl")
    with pytest.raises(ValueError):
        u_transform(sigma, "sideways")


def _chirp(j, n):
    """e^{i pi j k / N} read from the root table at (j k) mod 2N, k the
    signed index in FFT order."""
    return quantize._roots(n)[np.multiply.outer(j, quantize._signed(n)) % (2 * n)]


@pytest.mark.parametrize("n, extent", KERNEL_GRIDS)
def test_fft_order_transforms_match_the_centered_compositions_bitwise(n, extent):
    # the chirp commutes with the half-period shift that centers each
    # axis, so running plain FFTs with no shift in or out moves no bit
    grid = UniformGrid(1, n, extent)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for sign, direction, tag in ((1, "to_KN", "weyl"), (-1, "to_Weyl", "kn")):
        phase = np.fft.fftshift(_chirp(sign * quantize._signed(n), n))
        got = u_transform(PhaseSpaceSymbol(grid, values, tag), direction).values
        want = oracles.centered_u_multiplier(values, grid, phase)
        assert np.array_equal(bits(got), bits(want))
    t = np.arange(n) - n // 2
    # the half-step shift of the kernel shear, along x of G[x, t], one
    # shift per column
    for columns, shifts in ((values, t), (values, -t), (values.T, t)):
        phase = np.fft.fftshift(_chirp(-shifts, n), axes=1)
        work = np.array(columns, order="C")
        got = quantize._chirp_multiply(work, (grid.spacing,), quantize._signed(n), -shifts)
        want = oracles.centered_half_shift(columns.T, grid.spacing, phase).T
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("n", [2**e for e in range(1, 13)])
def test_sign_form_matches_the_shift_form_bitwise(n):
    # (-1)^(N/2) S fft(S x) is fftshift(fft(ifftshift(x))) to the bit at
    # power-of-two N, and the chirp commutes with the half-period shift.
    # The sign form may flip the sign of an exact zero, so + 0.0 first.
    # The shift form divides by the spacing where modop multiplies by its
    # reciprocal, so it runs at 0.3 and at the two spacings of
    # KERNEL_GRIDS that are not powers of two.
    def same(got, want):
        return np.array_equal(bits(got + 0.0), bits(want + 0.0))

    rng = np.random.default_rng(n)
    line = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tall = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    pairs = ((ft_along, oracles.shift_ft_along), (ift_along, oracles.shift_ift_along))
    shifts = rng.integers(-n // 2, n // 2, tall.shape[1], endpoint=True)
    phase = np.fft.fftshift(_chirp(-shifts, n), axes=1)
    for spacing in (0.3, 7.3 / 64, 12.345 / 128):
        for values, axis in ((line, 0), (line.real, 0), (tall, 0), (tall.T, 1)):
            for ours, shift_form in pairs:
                assert same(ours(values, axis, spacing), shift_form(values, axis, spacing))
        for columns in (tall, tall.real):
            work = np.array(columns, dtype=complex)
            got = quantize._chirp_multiply(work, (spacing,), quantize._signed(n), -shifts)
            assert same(got, oracles.centered_half_shift(columns.T, spacing, phase).T)
    if n <= 1024:
        square = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for extent in (8.0, n * 7.3 / 64, n * 12.345 / 128):
            grid = UniformGrid(1, n, extent)
            for sign, direction, tag in ((1, "to_KN", "weyl"), (-1, "to_Weyl", "kn")):
                phase = np.fft.fftshift(_chirp(sign * quantize._signed(n), n))
                got = u_transform(PhaseSpaceSymbol(grid, square, tag), direction).values
                assert same(got, oracles.centered_u_multiplier(square, grid, phase))


@pytest.mark.parametrize("n", [8, 256, 1024])
def test_chirp_matches_the_exactly_reduced_phase(n):
    # the reference reduces j k mod 2N in integers and takes the angle
    # pi r / N in extended precision
    k = quantize._signed(n)
    reduced = np.multiply.outer(k, k) % (2 * n)
    angle = 4 * np.arctan(np.longdouble(1)) * reduced.astype(np.longdouble) / n
    chirp = _chirp(k, n)
    assert np.abs(chirp.real - np.cos(angle)).max() <= 1e-15
    assert np.abs(chirp.imag - np.sin(angle)).max() <= 1e-15


# ---------------------------------------------------------------------------
# kernel correspondence


def test_kernel_roundtrip(small_grid):
    sigma = random_symbol(small_grid, seed=61, quantization="weyl")
    back = kernel_to_weyl(weyl_to_kernel(sigma))
    assert rel_err(back.values, sigma.values) <= 1e-10


@pytest.mark.parametrize("n", [8, 64])
def test_kernel_diagonals_match_the_loop_oracle(n, monkeypatch):
    # _skew moves values without arithmetic, in place, so the kernel
    # shear's layout must agree with the loop to the bit, both ways: the
    # slices of a kernel are _skew of it at shift N/2, transposed, and a
    # kernel is _skew of its transposed slices.  48 block entries make
    # blocks of 3 rows at n = 8 (the last one short) and of 1 row at n = 64.
    rng = np.random.default_rng(n)
    kernel, slices = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    for entries in (quantize._BLOCK_ENTRIES, 48):
        monkeypatch.setattr(quantize, "_BLOCK_ENTRIES", entries)
        work = kernel.copy()
        assert quantize._skew(work, n // 2) is work
        assert np.array_equal(bits(work.T), bits(oracles.kernel_diagonals(kernel)))
        built = quantize._skew(np.ascontiguousarray(slices.T), n // 2)
        assert np.array_equal(bits(oracles.kernel_diagonals(built)), bits(slices))
        # and it is its own inverse
        for shift in (0, n // 2, n - 1):
            twice = quantize._skew(quantize._skew(kernel.copy(), shift), shift)
            assert np.array_equal(bits(twice), bits(kernel))


def test_matrix_layout_matches_the_loop():
    # as_matrix's entry [j, j'] is entry [j, (j - j') mod N] of its
    # difference table, D = (h/L) N ifft(sigma) times (-1)^k along xi: the
    # layout of _skew at shift 0, checked against a loop to the bit
    n = 16
    grid = UniformGrid(1, n, 4.0)
    sigma = random_symbol(grid, seed=n)
    table = (grid.spacing / grid.extent) * n * np.fft.ifft(sigma.values, axis=1)
    table = table * (-1.0) ** np.arange(n)
    want = np.array([[table[j, (j - m) % n] for m in range(n)] for j in range(n)])
    assert np.array_equal(bits(as_matrix(sigma).entries), bits(want))


def test_identity_kernel_gives_constant_symbol(small_grid):
    n = small_grid.points_per_axis
    values = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(values, 1.0 / small_grid.spacing)
    sigma = kernel_to_weyl(KernelRep(small_grid, values))
    assert np.abs(sigma.values - 1.0).max() <= 1e-10


def test_kernel_matches_operator_action(weyl_grid):
    sigma = random_symbol(weyl_grid, seed=62, quantization="weyl")
    kernel = weyl_to_kernel(sigma)
    f = make_bandlimited(weyl_grid, seed=63, modes=6)
    via_kernel = weyl_grid.spacing * kernel.values @ f.values
    via_apply = weyl_apply(sigma, f).values
    assert rel_err(via_kernel, via_apply) <= 1e-10


def test_rank_one_kernel_pairing(small_grid):
    x = small_grid.axis_points()
    f = make_bandlimited(small_grid, seed=71, modes=5)
    g = SampledFunction(small_grid, np.exp(-np.pi * x**2) * np.exp(2j * np.pi * x))
    phi = SampledFunction(
        small_grid, np.exp(-np.pi * (x - 0.5) ** 2) * np.exp(-1j * np.pi * x)
    )
    kernel = KernelRep(small_grid, np.outer(phi.values, np.conj(g.values)))
    sigma = kernel_to_weyl(kernel)
    # <L f, g> against the direct h^2 double sum over the kernel
    lhs = small_grid.spacing * (weyl_apply(sigma, f).values @ np.conj(g.values))
    rhs = oracles.rank_one_pairing(kernel.values, f.values, g.values, small_grid)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


def test_weyl_transforms_memory_is_bounded():
    # each function transforms, chirps and skews one work array in place
    # and its result adopts that array, so it holds one N^2 array beside
    # its input.  1 MiB covers the chirp and _skew blocks, the finiteness
    # mask and the O(N) vectors.
    n = 512
    grid = UniformGrid(1, n, 16.0)
    sigma = random_symbol(grid, seed=81, quantization="weyl")
    kn = random_symbol(grid, seed=82)
    kernel = weyl_to_kernel(sigma)
    # Fortran-order twins: the values types copy them to C order, so the
    # transforms' work arrays are C order too and are adopted uncopied
    f_sigma = PhaseSpaceSymbol(grid, np.asfortranarray(sigma.values), "weyl")
    f_kn = PhaseSpaceSymbol(grid, np.asfortranarray(kn.values), "kn")
    f_kernel = KernelRep(grid, np.asfortranarray(kernel.values))
    calls = [
        lambda: u_transform(sigma, "to_KN"),
        lambda: weyl_to_kernel(sigma),
        lambda: kernel_to_weyl(kernel),
        lambda: as_matrix(kn),
        lambda: as_matrix(sigma),
        lambda: u_transform(f_sigma, "to_KN"),
        lambda: weyl_to_kernel(f_sigma),
        lambda: kernel_to_weyl(f_kernel),
        lambda: as_matrix(f_kn),
        lambda: as_matrix(f_sigma),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * n + 2**20


def test_weyl_transforms_return_c_order_arrays_of_their_own():
    # a caller's array, here a Fortran-order one, is still copied; the
    # results adopt the functions' work arrays: read-only, complex, C
    # order (an adopted Fortran-order array would change the order of
    # later axis reductions) and shared with nothing
    grid = UniformGrid(1, 16, 4.0)
    rng = np.random.default_rng(16)
    given = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))).T
    weyl, kn = PhaseSpaceSymbol(grid, given, "weyl"), PhaseSpaceSymbol(grid, given, "kn")
    kernel = KernelRep(grid, given)
    held = [weyl.values, kn.values, kernel.values, OperatorMatrix(given).entries,
            SampledFunction(grid, given[:, 0]).values]
    snapshot = [a.copy() for a in held]
    given[...] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(held, snapshot))
    results = [
        (weyl, u_transform(weyl, "to_KN").values),
        (kn, u_transform(kn, "to_Weyl").values),
        (weyl, weyl_to_kernel(weyl).values),
        (kernel, kernel_to_weyl(kernel).values),
        (kn, as_matrix(kn).entries),
        (weyl, as_matrix(weyl).entries),
    ]
    for source, values in results:
        assert values.dtype == complex and values.flags.c_contiguous
        assert not values.flags.writeable
        assert not np.shares_memory(values, source.values)


# ---------------------------------------------------------------------------
# symbol lift


def test_lift_keeps_the_multiplier_mark_only(default_grid):
    # b <xi>^s still depends on xi alone; a(x) <xi>^s no longer on x alone
    x = default_grid.axis_points()
    weights = bessel_weights(default_grid, 0.7)
    multiplier = bessel_symbol(default_grid, -1.0)
    multiplication = PhaseSpaceSymbol.product(default_grid, np.exp(-x**2), None)
    assert multiplier.factors[0] is None and multiplication.factors[1] is None
    lifted = lift_symbol(multiplier, 0.7)
    assert same_factors(lifted.factors, (None, multiplier.factors[1] * weights))
    dropped = lift_symbol(multiplication, 0.7)
    assert same_factors(dropped.factors, (multiplication.factors[0], weights))
    assert lift_symbol(multiplication, 0.0) is multiplication


def test_lift_keeps_factors(default_grid):
    sigma = gaussian_bump_symbol(default_grid)
    lifted = lift_symbol(sigma, 0.7)
    assert lifted.factors is not None
    dense = lift_symbol(sigma.with_values(sigma.values), 0.7)
    assert dense.factors is None
    assert rel_err(lifted.values, dense.values) <= 1e-15


def test_lift_trivial_and_composition(default_grid):
    sigma = random_symbol(default_grid, seed=81)
    assert np.array_equal(lift_symbol(sigma, 0.0).values, sigma.values)
    f = make_bandlimited(default_grid, seed=82)
    s = 0.9
    lhs = kn_apply(lift_symbol(sigma, s), f)
    rhs = kn_apply(sigma, bessel_potential(f, s))
    assert rel_err(lhs.values, rhs.values) <= 1e-12
    twice = lift_symbol(lift_symbol(sigma, 0.4), 0.6)
    once = lift_symbol(sigma, 1.0)
    assert rel_err(twice.values, once.values) <= 1e-13


# ---------------------------------------------------------------------------
# dense matrices


def test_as_matrix_constant_is_identity(small_grid):
    m = as_matrix(constant_symbol(small_grid))
    n = small_grid.points_per_axis
    assert np.abs(m.entries - np.eye(n)).max() <= 1e-10


def test_as_matrix_multiplier_eigenvalues(small_grid):
    xi = small_grid.axis_frequencies()
    values = np.tile((1.0 + xi**2) ** -0.5 + 0j, (small_grid.points_per_axis, 1))
    m = as_matrix(PhaseSpaceSymbol(small_grid, values, "kn"))
    x = small_grid.axis_points()
    for k in (0, 7, -11):
        mode = np.exp(2j * np.pi * (k / small_grid.extent) * x)
        got = m.entries @ mode
        want = (1.0 + (k / small_grid.extent) ** 2) ** -0.5 * mode
        assert rel_err(got, want) <= 1e-10


def test_as_matrix_matches_kn_apply(small_grid):
    # kn_apply of a dense symbol is its as_matrix, so check both against sums
    sigma = random_symbol(small_grid, seed=91)
    m = as_matrix(sigma)
    f = make_bandlimited(small_grid, seed=92, modes=6)
    want = oracles.direct_kn_apply(sigma.values, f.values, small_grid)
    assert rel_err(m.entries @ f.values, want) <= 1e-10


def test_as_matrix_intertwines_quantizations(small_grid):
    sigma = random_symbol(small_grid, seed=93, quantization="weyl")
    a = as_matrix(sigma)
    b = as_matrix(u_transform(sigma, "to_KN"))
    scale = np.abs(b.entries).max()
    assert np.abs(a.entries - b.entries).max() <= 1e-10 * scale
    f = make_bandlimited(small_grid, seed=94, modes=6)
    assert rel_err(a.entries @ f.values, weyl_apply(sigma, f).values) <= 1e-10


def test_weyl_adjoint_property(weyl_grid):
    sigma = random_symbol(weyl_grid, seed=95, quantization="weyl")
    a = as_matrix(sigma)
    a_star = as_matrix(sigma.with_values(np.conj(sigma.values)))
    scale = np.abs(a.entries).max()
    assert np.abs(a_star.entries - a.entries.conj().T).max() <= 1e-10 * scale


def test_as_matrix_size_guard():
    grid = UniformGrid(1, 2048, 16.0)
    sigma = constant_symbol(grid)
    with pytest.raises(TooLarge):
        as_matrix(sigma)
    # a symbol without factors applies through as_matrix, so kn_apply stops there too
    dense = PhaseSpaceSymbol(grid, np.ones((2048, 2048)), "kn")
    with pytest.raises(TooLarge):
        kn_apply(dense, make_bandlimited(grid, seed=0))


# ---------------------------------------------------------------------------
# PSS file format


def test_pss_roundtrip(tmp_path, tiny_grid):
    sigma = random_symbol(tiny_grid, seed=99, quantization="weyl")
    path = tmp_path / "sigma.pss"
    write_pss(sigma, path)
    back = read_pss(path)
    assert back.quantization == "weyl"
    assert back.grid.extent == tiny_grid.extent
    assert np.array_equal(back.values, sigma.values)


def test_pss_header_rule(tmp_path, tiny_grid):
    # the factors field, not the sample values, decides how a file loads:
    # x and xi hold the one factor of a symbol of that variable alone
    n = tiny_grid.points_per_axis
    rng = np.random.default_rng(97)
    a, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    cases = dict(standard_suite(tiny_grid))
    cases["weyl-product"] = PhaseSpaceSymbol.product(tiny_grid, a, b, "weyl")
    expected = {"constant": "xi", "multiplication": "x", "translation": "xi", "bessel": "xi",
                "gaussian-bump": "1", "weyl-product": "1"}
    assert set(expected) == set(cases)
    for name, sigma in cases.items():
        path = tmp_path / f"{name}.pss"
        write_pss(sigma, path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith(f"quant={sigma.quantization} factors={expected[name]}"), name
        assert len(lines) == 2 + (2 if expected[name] == "1" else 1) * n, name
        back = read_pss(path)
        assert back.quantization == sigma.quantization, name
        assert same_factors(back.factors, sigma.factors), name
    # rows all equal, but built from values: it stays dense
    row = bessel_symbol(tiny_grid, -1.0).factors[1]
    dense = PhaseSpaceSymbol(tiny_grid, np.outer(np.ones(n), row), "kn")
    path = tmp_path / "dense.pss"
    write_pss(dense, path)
    assert path.read_text().splitlines()[1].endswith("factors=0")
    back = read_pss(path)
    assert back.factors is None
    assert np.array_equal(back.values.view(np.uint64), dense.values.view(np.uint64))


def test_pss_header_validation(tmp_path):
    from modop import FileFormatError

    path = tmp_path / "bad.pss"
    path.write_text("PSS 2\ndim=1 n=2 extent=2 quant=sideways factors=0\n" + "0 0\n" * 4)
    with pytest.raises(FileFormatError):
        read_pss(path)
    path.write_text("PSS 2\ndim=1 n=2 extent=2 quant=kn factors=0\n0 0\n0 0\n0 0\n")
    with pytest.raises(FileFormatError):
        read_pss(path)
    # the header is checked before any sample line is read
    for fields, message in [
        ("quant=sideways factors=0", "quant must be"),
        ("quant=kn factors=2", "factors must be"),
        ("quant=kn factors=y", "factors must be"),
    ]:
        path.write_text(f"PSS 2\ndim=1 n=4 extent=2 {fields}\n")
        with pytest.raises(FileFormatError, match=message):
            read_pss(path)
    # a PSS 1 file has no reader
    path.write_text("PSS 1\ndim=1 n=4 extent=2 quant=kn\n" + "0 0\n" * 16)
    with pytest.raises(FileFormatError, match="bad magic line"):
        read_pss(path)
    # a factored file holds 2N sample lines, not N^2
    path.write_text("PSS 2\ndim=1 n=4 extent=2 quant=kn factors=1\n" + "0 0\n" * 16)
    with pytest.raises(FileFormatError, match="trailing content"):
        read_pss(path)
    # and a one-variable file N lines, not 2N
    path.write_text("PSS 2\ndim=1 n=4 extent=2 quant=kn factors=xi\n" + "0 0\n" * 8)
    with pytest.raises(FileFormatError, match="trailing content"):
        read_pss(path)


@pytest.mark.parametrize("quantization", ["kn", "weyl"])
def test_pss_round_trips_the_one_variable_mark(tmp_path, quantization):
    # a multiplier (a None) and a multiplication (b None) come back with
    # the same factor None and every bit of the other
    grid = UniformGrid(1, 16, 4.0)
    rng = np.random.default_rng(98)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for a, b in ((None, c), (c, None), (c, c)):
        sigma = PhaseSpaceSymbol.product(grid, a, b, quantization)
        assert same_factors(sigma.factors, (a, b))
        path = tmp_path / "marked.pss"
        write_pss(sigma, path)
        back = read_pss(path)
        assert back.quantization == quantization
        assert same_factors(back.factors, sigma.factors)


def test_pss_factors_1_with_unit_a_reads_as_a_general_product(tmp_path, tiny_grid):
    # a multiplier written as a product of two factors keeps both: the
    # values it holds do not make a None factor
    n = tiny_grid.points_per_axis
    path = tmp_path / "phases.pss"
    b = bessel_symbol(tiny_grid, -1.0).factors[1]
    lines = [f"{z.real:.17g} {z.imag:.17g}" for z in np.concatenate([np.ones(n), b])]
    head = f"PSS 2\ndim=1 n={n} extent={tiny_grid.extent:.17g} quant=kn factors=1\n"
    path.write_text(head + "\n".join(lines) + "\n")
    back = read_pss(path)
    assert same_factors(back.factors, (np.ones(n), b))


# ---------------------------------------------------------------------------
# immutable values

_GRID8 = UniformGrid(1, 8, 4.0)

# name: (shape of the caller's input array, the value built from it, what
# the value holds: its arrays and scalars)
_VALUE_TYPES = {
    "grid": ((), lambda x: UniformGrid(1, 8, x), lambda v: [v.extent]),
    "sampled": ((8,), lambda x: SampledFunction(_GRID8, x), lambda v: [v.values]),
    "dense-symbol": (
        (8, 8), lambda x: PhaseSpaceSymbol(_GRID8, x, "kn"), lambda v: [v.values]
    ),
    "product-symbol": (
        (2, 8),
        lambda x: PhaseSpaceSymbol.product(_GRID8, x[0], x[1], "weyl"),
        lambda v: [*v.factors, v.values],
    ),
    "kernel": ((8, 8), lambda x: KernelRep(_GRID8, x), lambda v: [v.values]),
    "matrix": ((8, 8), OperatorMatrix, lambda v: [v.entries]),
    "norm": ((), lambda x: NormEstimate(x, "power_2", 3, x, 0, False), lambda v: [v.value]),
}


@pytest.mark.parametrize("name", _VALUE_TYPES)
def test_value_types_are_immutable(name):
    shape, build, held = _VALUE_TYPES[name]
    # complex arrays, so that a missing copy would share memory with them
    given = np.full(shape, 2.0, dtype=complex if shape else float)
    value = build(given)
    for attr in ("grid", "values", "factors", "entries", "value", "extent", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    arrays = [a for a in held(value) if isinstance(a, np.ndarray)]
    assert all(not a.flags.writeable for a in arrays)
    snapshot = [np.copy(a) for a in held(value)]
    given[...] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(held(value), snapshot))


# ---------------------------------------------------------------------------
# every kind of symbol factors can name, against its dense twin

# the factors of each kind, built from two arrays a and b
_SHAPES = {
    "dense": lambda a, b: None,
    "product": lambda a, b: (a, b),
    "multiplication": lambda a, b: (a, None),
    "multiplier": lambda a, b: (None, b),
}


@pytest.mark.parametrize("shape", _SHAPES)
def test_every_factor_shape_matches_its_dense_twin(tmp_path, shape):
    grid = UniformGrid(1, 16, 4.0)
    rng = np.random.default_rng(67)
    a, b = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    factors = _SHAPES[shape](a, b)
    if factors is None:
        sigma = PhaseSpaceSymbol(grid, np.outer(a, b), "kn")
    else:
        sigma = PhaseSpaceSymbol.product(grid, *factors)
        assert same_factors(sigma.factors, factors)
    one_variable = shape in ("multiplication", "multiplier")
    twin = sigma.with_values(sigma.values)

    # u_transform: a symbol of one variable keeps its factors
    for quantization, direction in (("kn", "to_Weyl"), ("weyl", "to_KN")):
        got = u_transform(replace(sigma, quantization=quantization), direction)
        want = u_transform(replace(twin, quantization=quantization), direction)
        if one_variable:
            assert same_factors(got.factors, sigma.factors)
            assert rel_err(got.values, want.values) <= 1e-14, direction
        else:  # the dense chirp on the twin's values
            assert got.factors is None
            assert np.array_equal(bits(got.values), bits(want.values)), direction

    # lift_symbol: <xi>^s multiplies b, so only a multiplier keeps a None factor
    lifted, lifted_twin = lift_symbol(sigma, 0.7), lift_symbol(twin, 0.7)
    assert rel_err(lifted.values, lifted_twin.values) <= 1e-15
    if factors is not None:
        assert (lifted.factors[0] is None) == (shape == "multiplier")
        assert lifted.factors[1] is not None

    # kn_operator: apply, adjoint, sums of |A| and exact_2
    block = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    op, dense = quantize.kn_operator(sigma), quantize.kn_operator(twin)
    assert op.n == 16
    assert rel_err(op.apply(block), dense.apply(block)) <= 1e-13
    assert rel_err(op.adjoint(block), dense.adjoint(block)) <= 1e-13
    assert rel_err(op.column_sums(), dense.column_sums()) <= 1e-13
    assert rel_err(op.row_sums(), dense.row_sums()) <= 1e-13
    if one_variable:
        want = np.linalg.norm(as_matrix(twin).entries, 2)
        assert abs(op.exact_2 - want) <= 1e-13 * want
    else:
        assert op.exact_2 is None

    # sjostrand_norm and s_seminorms
    want = sjostrand_norm(twin, 0.5)
    assert abs(sjostrand_norm(sigma, 0.5) - want) <= 1e-13 * want
    got, want = s_seminorms(sigma, max_order=2), s_seminorms(twin, max_order=2)
    assert got.orders == want.orders
    assert rel_err(got.values, want.values) <= 1e-13

    # a PSS round trip keeps the kind and every bit
    path = tmp_path / f"{shape}.pss"
    write_pss(sigma, path)
    back = read_pss(path)
    if factors is None:
        assert back.factors is None
        assert np.array_equal(bits(back.values), bits(sigma.values))
    else:
        assert same_factors(back.factors, sigma.factors)


@pytest.mark.parametrize("n", [8, 64, 96])
def test_a_none_factor_is_not_applied(n):
    # a multiplication (a, None) is diag(a): it applies as a * x and its
    # adjoint as conj(a) * y, with no identity circulant; a multiplier
    # (None, b) is the circulant alone, with no multiply by ones; each
    # agrees with its dense twin
    grid = UniformGrid(1, n, 8.0)
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    eig = np.fft.ifftshift(b)
    for shape in ((n,), (n, 3)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = x.T
        op = quantize.kn_operator(PhaseSpaceSymbol.product(grid, a, None))
        assert np.array_equal(bits(op.apply(x)), bits((a * rows).T))
        assert np.array_equal(bits(op.adjoint(x)), bits((a.conj() * rows).T))
        op = quantize.kn_operator(PhaseSpaceSymbol.product(grid, None, b))
        assert np.array_equal(bits(op.apply(x)), bits(np.fft.ifft(eig * np.fft.fft(rows)).T))
        assert np.array_equal(bits(op.adjoint(x)), bits(np.fft.ifft(eig.conj() * np.fft.fft(rows)).T))
        for factors in ((a, None), (None, b), (a, b)):
            symbol = PhaseSpaceSymbol.product(grid, *factors)
            op = quantize.kn_operator(symbol)
            dense = quantize.kn_operator(as_matrix(symbol))
            assert rel_err(op.apply(x), dense.apply(x)) <= 1e-13
            assert rel_err(op.adjoint(x), dense.adjoint(x)) <= 1e-13
    # a multiplication's sums of |A| are |a| and its three closed forms
    # max|a|, to the bit
    multiplication = PhaseSpaceSymbol.product(grid, a, None)
    op = quantize.kn_operator(multiplication)
    assert np.array_equal(bits(op.column_sums()), bits(np.abs(a)))
    assert np.array_equal(bits(op.row_sums()), bits(np.abs(a)))
    top = np.abs(a).max()
    for p, method in (("1", "exact_1"), ("inf", "exact_inf"), ("2", "exact_2")):
        est = estimate_norm(multiplication, p)
        assert (est.value, est.method) == (top, method), p


def test_no_operator_forms_a_ones_array(monkeypatch):
    # every gen kind has factors, and its operator reads a None factor by
    # its kind, never as ones: kn_apply and every estimator run with
    # _factor_arrays raising, on the kind and on its lift at s = 1/4
    def no_ones(self):
        raise AssertionError("a None factor was read as ones")

    monkeypatch.setattr(PhaseSpaceSymbol, "_factor_arrays", no_ones)
    grid = UniformGrid(1, 64, 4.0)
    f = make_bandlimited(grid, seed=5)
    for kind, build in cli._KINDS.items():
        args = cli.build_parser().parse_args(["gen", "--kind", kind, "--n", "64",
                                              "--extent", "4", "--out", "unused"])
        symbol = build(grid, args)
        for sigma in (symbol, lift_symbol(symbol, -0.25)):
            assert sigma.factors is not None, kind
            assert kn_apply(sigma, f).grid == grid
            for p in ("1", "4/3", "2", "4", "inf"):
                assert estimate_norm(sigma, p).value > 0.0, (kind, p)
