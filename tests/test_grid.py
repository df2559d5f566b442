import math
import tracemalloc

import numpy as np
import pytest

from modop import (
    DimensionUnsupported,
    FileFormatError,
    InvalidValue,
    OffLattice,
    SampledFunction,
    TooLarge,
    UniformGrid,
    bessel_potential,
    forward_ft,
    inverse_ft,
    lp_norm,
    read_pss,
    read_sfn,
    translate,
    write_sfn,
)
from modop.exponents import from_p
from modop import grid as grid_module
from modop.grid import ft_along, ift_along

import oracles
from conftest import make_bandlimited, rel_err, unit_gaussian


def test_grid_invariants(default_grid):
    g = default_grid
    assert g.spacing * g.points_per_axis == g.extent
    freqs = g.axis_frequencies()
    n = g.points_per_axis
    expected = (np.arange(n) - n // 2) / g.extent
    assert np.array_equal(freqs, expected)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        UniformGrid(1, 3, 4.0)
    with pytest.raises(ValueError):
        UniformGrid(1, 0, 4.0)
    with pytest.raises(ValueError):
        UniformGrid(1, 8, -1.0)
    for extent in (math.inf, math.nan):
        with pytest.raises(ValueError):
            UniformGrid(1, 8, extent)
    # no array is formed, so a grid at the cap is cheap to build
    assert UniformGrid(1, 2**30, 1.0).points_per_axis == 2**30
    for n in (2**30 + 2, 2**40, 2**1024):
        with pytest.raises(TooLarge, match="limited to 1073741824"):
            UniformGrid(1, n, 1.0)
    # int() would truncate 4.5 to a 4-point grid
    for dim, n in ((1, 4.5), (1, "8"), (1.5, 8), (True, 8), (1, np.float64(8))):
        with pytest.raises(InvalidValue, match="must be an integer"):
            UniformGrid(dim, n, 1.0)
    # float() would read "4" as 4.0 and True as 1.0
    for extent in ("4", True, np.bool_(True), 4.0 + 0j, None, [4.0], np.array(["4"])):
        with pytest.raises(InvalidValue, match="extent must be a real number"):
            UniformGrid(1, 8, extent)


def test_grid_accepts_numpy_integers():
    grid = UniformGrid(np.int64(1), np.int32(8), 1.0)
    assert grid == UniformGrid(1, 8, 1.0)
    assert type(grid.dim) is int and type(grid.points_per_axis) is int
    for extent in (4, np.int64(4), np.float32(4.0), np.float64(4.0), np.array(4.0)):
        grid = UniformGrid(1, 8, extent)
        assert grid == UniformGrid(1, 8, 4.0) and type(grid.extent) is float


def test_gaussian_is_ft_fixed_point(default_grid):
    x = default_grid.axis_points()
    f = SampledFunction(default_grid, np.exp(-np.pi * x**2) + 0j)
    spec = forward_ft(f)
    xi = default_grid.axis_frequencies()
    assert np.abs(spec.values - np.exp(-np.pi * xi**2)).max() <= 1e-10


def test_constant_transforms_to_point_mass(default_grid):
    n = default_grid.points_per_axis
    f = SampledFunction(default_grid, np.ones(n, dtype=complex))
    spec = forward_ft(f)
    expected = np.zeros(n, dtype=complex)
    expected[n // 2] = default_grid.extent
    assert np.abs(spec.values - expected).max() <= 1e-10
    back = inverse_ft(SampledFunction(default_grid, expected))
    assert np.abs(back.values - 1.0).max() <= 1e-12


def test_ft_matches_direct_quadrature(tiny_grid):
    f = make_bandlimited(tiny_grid, seed=5, modes=4)
    spec = forward_ft(f)
    direct = oracles.direct_forward_ft(f.values, tiny_grid)
    assert rel_err(spec.values, direct) <= 1e-12
    back = inverse_ft(spec)
    direct_back = oracles.direct_inverse_ft(spec.values, tiny_grid)
    assert rel_err(back.values, direct_back) <= 1e-12


def test_roundtrip_random(default_grid):
    rng = np.random.default_rng(3)
    n = default_grid.points_per_axis
    f = SampledFunction(default_grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    back = inverse_ft(forward_ft(f))
    assert rel_err(back.values, f.values) <= 1e-12


def test_parseval(default_grid):
    for seed in range(5):
        f = make_bandlimited(default_grid, seed)
        spec = forward_ft(f)
        lhs = default_grid.spacing * np.abs(f.values**2).sum()
        rhs = default_grid.dual_spacing * np.abs(spec.values**2).sum()
        assert abs(lhs - rhs) <= 1e-12 * lhs


def test_translation_covariance(default_grid):
    f = make_bandlimited(default_grid, seed=11)
    a = 2.0  # a grid point for h = 1/16
    lhs = forward_ft(translate(f, a))
    xi = default_grid.axis_frequencies()
    rhs = np.exp(-2j * np.pi * a * xi) * forward_ft(f).values
    assert rel_err(lhs.values, rhs) <= 1e-12


def test_centered_transforms_hold_one_array():
    # the sign form transforms in place in the one complex array it
    # returns; 1 MiB covers the FFT's line buffers
    n = 1024
    values = np.random.default_rng(17).standard_normal((n, n)) + 0j
    for transform in (ft_along, ift_along):
        for axis in (0, 1):
            tracemalloc.start()
            try:
                transform(values, axis, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * n * n + 2**20


def test_translate_trivia(default_grid):
    f = make_bandlimited(default_grid, seed=2)
    assert np.array_equal(translate(f, 0.0).values, f.values)
    h = default_grid.spacing
    round_trip = translate(translate(f, 5 * h), -5 * h)
    assert np.array_equal(round_trip.values, f.values)


def test_off_lattice_rejected(default_grid):
    f = make_bandlimited(default_grid, seed=1)
    with pytest.raises(OffLattice):
        translate(f, default_grid.spacing / 3.0)
    for shift in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidValue, match="not a finite multiple"):
            translate(f, shift)


def test_bessel_identity_and_inverse(default_grid):
    f = make_bandlimited(default_grid, seed=7)
    assert np.array_equal(bessel_potential(f, 0.0).values, f.values)
    back = bessel_potential(bessel_potential(f, 1.3), -1.3)
    assert rel_err(back.values, f.values) <= 1e-12


def test_bessel_scales_pure_modes(default_grid):
    x = default_grid.axis_points()
    for k in (0, 3, -17):
        xi_k = k / default_grid.extent
        mode = SampledFunction(default_grid, np.exp(2j * np.pi * xi_k * x))
        out = bessel_potential(mode, -2.0)
        expected = (1.0 + xi_k**2) ** (-1.0) * mode.values
        assert rel_err(out.values, expected) <= 1e-12


def test_bessel_diagonal_in_fourier_basis(tiny_grid):
    n = tiny_grid.points_per_axis
    basis = np.eye(n, dtype=complex)
    columns = [
        bessel_potential(SampledFunction(tiny_grid, basis[:, j]), 1.5).values
        for j in range(n)
    ]
    m = np.array(columns).T
    f = oracles.dft_matrix(tiny_grid)
    conj = f @ m @ np.linalg.inv(f)
    diag = np.diag(conj)
    off = conj - np.diag(diag)
    assert np.abs(off).max() <= 1e-10 * np.abs(diag).max()
    xi = tiny_grid.axis_frequencies()
    assert np.abs(diag - (1.0 + xi**2) ** 0.75).max() <= 1e-10


def test_sfn_roundtrip_bit_exact(tmp_path, tiny_grid):
    f = make_bandlimited(tiny_grid, seed=9, modes=3)
    path = tmp_path / "f.sfn"
    write_sfn(f, path)
    g = read_sfn(path)
    assert g.grid.points_per_axis == tiny_grid.points_per_axis
    assert g.grid.extent == tiny_grid.extent
    assert np.array_equal(g.values, f.values)


def test_sfn_header_is_validated(tmp_path):
    path = tmp_path / "bad.sfn"
    path.write_text("SFN 2\ndim=1 n=4 extent=4\n" + "0 0\n" * 4)
    from modop import FileFormatError

    with pytest.raises(FileFormatError):
        read_sfn(path)
    path.write_text("SFN 1\ndim=1 n=4 extent=4\n0 0\n0 0\n")
    with pytest.raises(FileFormatError):
        read_sfn(path)


# reader, magic line, header fields after extent, sample lines at n=2
_SAMPLE_FORMATS = {
    "sfn": (read_sfn, "SFN 1", "", 2),
    "pss": (read_pss, "PSS 2", " quant=kn factors=0", 4),
    # at n=2 the 2N factor samples happen to number N^2 as well
    "pss-factors": (read_pss, "PSS 2", " quant=kn factors=1", 4),
    # one factor of a symbol of one variable: N samples
    "pss-x": (read_pss, "PSS 2", " quant=kn factors=x", 2),
    "pss-xi": (read_pss, "PSS 2", " quant=weyl factors=xi", 2),
}


@pytest.mark.parametrize("fmt", sorted(_SAMPLE_FORMATS))
def test_sample_file_with_dim_2_header_is_unsupported(tmp_path, fmt):
    reader, magic, extra, count = _SAMPLE_FORMATS[fmt]
    path = tmp_path / f"f.{fmt}"
    # at d=2 a function holds n^2 samples and a symbol n^4
    path.write_text(f"{magic}\ndim=2 n=2 extent=2{extra}\n" + "0 0\n" * count**2)
    with pytest.raises(DimensionUnsupported):
        reader(path)


@pytest.mark.parametrize(
    "defect",
    [
        "header key", "odd n", "inf extent", "three fields", "bad number", "non-ascii byte",
        "header past the file", "no samples", "blank samples", "blank inside",
        "trailing content", "content after blank line",
    ],
)
@pytest.mark.parametrize("fmt", sorted(_SAMPLE_FORMATS))
def test_malformed_sample_file_is_rejected(tmp_path, fmt, defect):
    reader, magic, extra, count = _SAMPLE_FORMATS[fmt]
    head = f"{magic}\ndim=1 n=2 extent=2{extra}\n"
    samples = "0 0\n" * count
    path = tmp_path / f"f.{fmt}"
    # blank lines may follow the block
    path.write_text(head + samples + "\n \n")
    reader(path)
    path.write_text(
        {
            "header key": f"{magic}\ndim=1 size=2 extent=2{extra}\n" + samples,
            "odd n": f"{magic}\ndim=1 n=3 extent=2{extra}\n" + samples,
            "inf extent": f"{magic}\ndim=1 n=2 extent=inf{extra}\n" + samples,
            "three fields": head + "0 0 0\n" + samples[4:],
            "bad number": head + "0 zero\n" + samples[4:],
            "non-ascii byte": head + "0 \xc3\n" + samples[4:],
            # 2^20 points: up to 2^40 samples, which the file's lines bound
            "header past the file": f"{magic}\ndim=1 n=1048576 extent=2{extra}\n" + samples,
            "no samples": head,
            "blank samples": head + "\n" * count,
            "blank inside": head + "0 0\n\n" + samples[4:],
            "trailing content": head + samples + "0 0\n",
            "content after blank line": head + samples + "\n0 0\n",
        }[defect],
        encoding="latin-1",
    )
    # numpy's warning on a block with no data would fail the test too
    with pytest.raises(FileFormatError):
        reader(path)


def test_sample_round_trip_is_bit_exact_at_the_float_extremes(tmp_path):
    grid = UniformGrid(1, 4096, 16.0)
    extremes = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    parts = np.random.default_rng(4).standard_normal((2, 4096))
    parts[0, : len(extremes)] = extremes
    parts[1, : len(extremes)] = extremes[::-1]
    parts[1, -len(extremes) :] = extremes
    f = SampledFunction(grid, parts[0] + 1j * parts[1])
    path = tmp_path / "extremes.sfn"
    write_sfn(f, path)
    back = read_sfn(path).values
    assert np.array_equal(back.view(np.uint64), f.values.view(np.uint64))


def test_sample_lines_match_the_per_value_loop_bytewise(tmp_path, monkeypatch):
    # signed zeros, subnormals, the largest float, values with no short
    # repr and random magnitudes over the float range, written in one
    # block, in the default blocks and in blocks of 3 lines, which leave
    # a partial last block
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             0.1, 1 / 3, -2 / 3, 2.2250738585072014e-308]
    rng = np.random.default_rng(40)
    parts = rng.standard_normal((2, 4096)) * 10.0 ** rng.integers(-300, 300, (2, 4096))
    parts[0, : len(edges)] = edges
    parts[1, : len(edges)] = edges[::-1]
    f = SampledFunction(UniformGrid(1, 4096, 16.0), parts[0] + 1j * parts[1])
    want = oracles.loop_sample_lines(f.values)
    path = tmp_path / "f.sfn"
    for lines in (4096, grid_module._WRITE_LINES, 3):
        monkeypatch.setattr(grid_module, "_WRITE_LINES", lines)
        write_sfn(f, path)
        assert path.read_text().split("\n", 2)[2] == want


def test_values_must_match_grid(default_grid):
    from modop import GridMismatch

    with pytest.raises(GridMismatch):
        SampledFunction(default_grid, np.zeros(7, dtype=complex))
    bad = np.full(default_grid.points_per_axis, np.nan + 0j)
    with pytest.raises(ValueError):
        SampledFunction(default_grid, bad)


def test_gaussian_normalization(default_grid):
    g = unit_gaussian(default_grid)
    assert abs(lp_norm(g, from_p(2)) - 1.0) <= 1e-10
