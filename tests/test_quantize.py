import tracemalloc

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
    forward_ft,
    gaussian_bump_symbol,
    kernel_to_weyl,
    kn_apply,
    lift_symbol,
    multiplication_symbol,
    read_pss,
    standard_suite,
    translate,
    translation_symbol,
    u_transform,
    weyl_apply,
    weyl_to_kernel,
    write_pss,
)

from modop import quantize

import oracles
from conftest import KERNEL_GRIDS, bits, make_bandlimited, rel_err


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
        _, _, adjoint, *sums, exact_2 = quantize.kn_operator(sigma)
        _, _, dense_adjoint, *dense_sums, dense_exact_2 = quantize.kn_operator(dense)
        assert rel_err(adjoint(block), dense_adjoint(block)) <= 1e-12, name
        for got_sums, want_sums in zip(sums, dense_sums):
            assert rel_err(got_sums(), want_sums()) <= 1e-12, name
        assert dense_exact_2() is None
        if exact_2() is not None:
            spectral = np.linalg.norm(quantize.as_matrix(dense).entries, 2)
            assert rel_err(exact_2(), spectral) <= 1e-12, name


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


def test_u_transform_direction_validation(default_grid):
    sigma = random_symbol(default_grid, seed=52, quantization="weyl")
    with pytest.raises(WrongQuantization):
        u_transform(sigma, "to_Weyl")
    with pytest.raises(ValueError):
        u_transform(sigma, "sideways")


def _signed(n):
    return np.fft.ifftshift(np.arange(n) - n // 2)


def _chirp(j, n):
    """e^{i pi j k / N} read from the root table at (j k) mod 2N, k the
    signed index in FFT order."""
    return quantize._roots(n)[np.multiply.outer(j, _signed(n)) % (2 * n)]


@pytest.mark.parametrize("n, extent", KERNEL_GRIDS)
def test_fft_order_transforms_match_the_centered_compositions_bitwise(n, extent):
    # the fftshift that ends each forward transform and the ifftshift that
    # starts the inverse cancel exactly, so dropping them moves no bit
    grid = UniformGrid(1, n, extent)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for sign, direction, tag in ((1, "to_KN", "weyl"), (-1, "to_Weyl", "kn")):
        phase = np.fft.fftshift(_chirp(sign * _signed(n), n))
        got = u_transform(PhaseSpaceSymbol(grid, values, tag), direction).values
        want = oracles.centered_u_multiplier(values, grid, phase)
        assert np.array_equal(bits(got), bits(want))
    t = np.arange(n) - n // 2
    # the half-step shift of the kernel shear; weyl_to_kernel hands it a
    # transposed view
    for rows, shifts in ((values, t), (values, -t), (values.T, t)):
        phase = np.fft.fftshift(_chirp(-shifts, n), axes=1)
        got = quantize._chirp_multiply(rows, (grid.spacing,), -shifts)
        want = oracles.centered_half_shift(rows, grid.spacing, phase)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("n", [8, 256, 1024])
def test_chirp_matches_the_exactly_reduced_phase(n):
    # the reference reduces j k mod 2N in integers and takes the angle
    # pi r / N in extended precision
    k = _signed(n)
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
def test_kernel_diagonals_match_the_loop_oracle(n):
    # _skew moves values without arithmetic, so the kernel shear's layout
    # must agree with the loop to the bit, both ways: the slices of a
    # kernel are _skew of it at shift N/2, transposed, and a kernel is _skew
    # of its transposed slices
    rng = np.random.default_rng(n)
    kernel, slices = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    got = quantize._skew(kernel, n // 2).T
    assert np.array_equal(bits(got), bits(oracles.kernel_diagonals(kernel)))
    built = quantize._skew(np.ascontiguousarray(slices.T), n // 2)
    assert np.array_equal(bits(oracles.kernel_diagonals(built)), bits(slices))
    # and it is its own inverse
    for shift in (0, n // 2, n - 1):
        twice = quantize._skew(np.ascontiguousarray(quantize._skew(kernel, shift)), shift)
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
    # u_transform holds its FFT-order work array and the centered copy it
    # returns, then that copy and the symbol's frozen one; the kernel
    # shear also holds the rows it hands _chirp_multiply, or the (N, 2N)
    # gather of _skew.  1 MiB covers the chirp blocks, the finiteness mask
    # and the O(N) vectors.
    n = 512
    sigma = random_symbol(UniformGrid(1, n, 16.0), seed=81, quantization="weyl")
    kernel = weyl_to_kernel(sigma)
    calls = [
        (lambda: u_transform(sigma, "to_KN"), 2),
        (lambda: weyl_to_kernel(sigma), 3),
        (lambda: kernel_to_weyl(kernel), 3),
    ]
    for call, arrays in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 16 * n * n + 2**20


# ---------------------------------------------------------------------------
# symbol lift


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
    # the factors field, not the sample values, decides how a file loads
    n = tiny_grid.points_per_axis
    rng = np.random.default_rng(97)
    a, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    cases = dict(standard_suite(tiny_grid))
    cases["weyl-product"] = PhaseSpaceSymbol.product(tiny_grid, a, b, "weyl")
    for name, sigma in cases.items():
        path = tmp_path / f"{name}.pss"
        write_pss(sigma, path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith(f"quant={sigma.quantization} factors=1"), name
        assert len(lines) == 2 + 2 * n, name
        back = read_pss(path)
        assert back.quantization == sigma.quantization, name
        for got, want in zip(back.factors, sigma.factors):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
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
