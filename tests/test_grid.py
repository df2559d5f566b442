import math

import numpy as np
import pytest

from modop import (
    DimensionUnsupported,
    FileFormatError,
    InvalidValue,
    OffLattice,
    SampledFunction,
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
    ["header key", "odd n", "inf extent", "three fields", "bad number", "trailing content"],
)
@pytest.mark.parametrize("fmt", sorted(_SAMPLE_FORMATS))
def test_malformed_sample_file_is_rejected(tmp_path, fmt, defect):
    reader, magic, extra, count = _SAMPLE_FORMATS[fmt]
    head = f"{magic}\ndim=1 n=2 extent=2{extra}\n"
    samples = "0 0\n" * count
    path = tmp_path / f"f.{fmt}"
    path.write_text(head + samples)
    reader(path)
    path.write_text(
        {
            "header key": f"{magic}\ndim=1 size=2 extent=2{extra}\n" + samples,
            "odd n": f"{magic}\ndim=1 n=3 extent=2{extra}\n" + samples,
            "inf extent": f"{magic}\ndim=1 n=2 extent=inf{extra}\n" + samples,
            "three fields": head + "0 0 0\n" + samples[4:],
            "bad number": head + "0 zero\n" + samples[4:],
            "trailing content": head + samples + "0 0\n",
        }[defect]
    )
    with pytest.raises(FileFormatError):
        reader(path)


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
