import threading
import tracemalloc

import numpy as np
import pytest

from modop import (
    DimensionUnsupported,
    GridMismatch,
    InvalidValue,
    PhaseSpaceSymbol,
    SampledFunction,
    TooLarge,
    UniformGrid,
    ZeroWindow,
    amalgam_norm,
    amalgam_norms,
    bessel_potential,
    bessel_symbol,
    constant_symbol,
    default_window,
    forward_ft,
    gaussian_bump_symbol,
    lift_symbol,
    lp_norm,
    modulation_norm,
    modulation_norms,
    multiplication_symbol,
    random_phase_multiplier,
    sjostrand_norm,
    sobolev_norm,
    stft,
    translate,
    translation_symbol,
)
from modop import analysis
from modop import grid as grid_module
from modop.exponents import from_p

import oracles
from conftest import KERNEL_GRIDS, bits, make_bandlimited, rel_err, unit_gaussian

TWO = from_p(2)


def test_stft_matches_direct_quadrature(tiny_grid):
    f = make_bandlimited(tiny_grid, seed=4, modes=3)
    g = unit_gaussian(tiny_grid)
    got = stft(f, g)
    want = oracles.direct_stft(f.values, g.values, tiny_grid)
    assert rel_err(got, want) <= 1e-12


def _gather_spectra(arrays, window, spacing, rows):
    """The spectra kernel's oracle for one-axis arrays: gather_stft of
    each, rows translates at a time as the kernel yields it."""
    for values in arrays:
        spectra = oracles.gather_stft(values, window, spacing)
        for start in range(0, len(values), rows):
            yield start, spectra[start:start + rows]


@pytest.mark.parametrize("n, extent", KERNEL_GRIDS)
def test_magnitude_kernel_matches_gather_oracle_bitwise(n, extent):
    grid = UniformGrid(1, n, extent)
    fs = [make_bandlimited(grid, seed=seed, modes=min(3, n // 4)) for seed in (7, 8, 9)]
    window = default_window(grid).values
    # the kernel overwrites one block at a time, so compare each as it
    # comes: all N translates per function, then 7 (a partial last block)
    arrays = [f.values for f in fs]
    for rows in (n, 7):
        got_spectra = analysis._spectra(arrays, window, grid.spacing, rows)
        want_spectra = _gather_spectra(arrays, window, grid.spacing, rows)
        for (got_start, got), (want_start, want) in zip(got_spectra, want_spectra, strict=True):
            assert got.dtype == np.complex128 and got_start == want_start
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n, extent", KERNEL_GRIDS)
def test_strided_kernel_matches_gather_oracle_bitwise(monkeypatch, n, extent):
    grid = UniformGrid(1, n, extent)
    f = make_bandlimited(grid, seed=7, modes=min(3, n // 4))
    g = default_window(grid)
    got = stft(f, g)
    assert np.array_equal(bits(got), bits(oracles.gather_stft(f.values, g.values, grid.spacing)))

    fs = [f, make_bandlimited(grid, seed=8, modes=min(3, n // 4))]
    names = [name for name, _ in EXPONENTS]
    n_modes = int(n / (2 * extent) - 0.45)  # the most modes the grid's band holds
    symbols = [gaussian_bump_symbol(grid), random_phase_multiplier(grid, n_modes, seed=3)]

    def tables():
        norms = [modulation_norms(fs, names, names)]
        for s in (0.0, 0.5):
            norms.append(amalgam_norms(fs, names, names, s))
            norms.append([[sjostrand_norm(sigma, s) for sigma in symbols]])
        return norms

    fast = tables()
    # three translates per block leave a partial last block at every n here
    monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", 3 * n)
    blocked = tables()
    # the same tables with the gather oracle in the spectra kernel (the
    # norm tables) and in the sup-STFT kernel (the factored sjostrand_norm)
    monkeypatch.setattr(analysis, "_spectra", _gather_spectra)
    monkeypatch.setattr(analysis, "_sup_stft", _gather_sup_stft)
    want = tables()
    for got in (fast, blocked):
        for got_table, want_table in zip(got, want, strict=True):
            assert np.array_equal(bits(got_table), bits(want_table))


def _gather_sup_stft(values, window, spacing, weight):
    """The sup-STFT kernel's oracle for one-axis values: the weighted
    |gather_stft| maximized over every translate at once."""
    return (np.abs(oracles.gather_stft(values, window, spacing)) * weight[:, None]).max(axis=0)


@pytest.mark.parametrize("shape", [(16,), (256,), (2048,), (16, 16), (64, 64)],
                         ids=["16", "256", "2048", "16x16", "64x64"])
def test_sup_stft_is_bit_identical_for_any_block(monkeypatch, shape):
    # blocks of 1, 7 and all N translates against one block per call; the
    # 2-D values are the dense path's, with their leading x axis kept
    n = shape[-1]
    grid = UniformGrid(1, n, 8.0)
    rng = np.random.default_rng(n + len(shape))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    args = (values, analysis._gaussian(grid.axis_frequencies()), grid.dual_spacing,
            grid_module.bessel_weights(grid, 0.25))
    monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", n * values.size)
    want = analysis._sup_stft(*args)
    assert want.shape == shape
    for rows in (1, 7, n):
        monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", rows * values.size)
        assert np.array_equal(analysis._sup_stft(*args).view(np.uint64), want.view(np.uint64))


def _ulps(got, want):
    """The largest distance in units in the last place between two
    arrays of non-negative floats."""
    return int(np.max(np.abs(np.asarray(got).view(np.int64) - np.asarray(want).view(np.int64))))


def _sup_stft_args(n, lead):
    grid = UniformGrid(1, n, 8.0)
    rng = np.random.default_rng(n + len(lead))
    values = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
    return (values, analysis._gaussian(grid.axis_frequencies()), grid.dual_spacing,
            grid_module.bessel_weights(grid, 0.25))


@pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["1d", "2d"])
def test_sup_stft_is_the_centered_form_bitwise(monkeypatch, n, lead):
    # the FFT-order kernel against the centered ft_along form it replaced:
    # at a power-of-two N the sign modulation is the half-period shift to
    # the bit, so no value moves at any block; all N rows at N = 4096 would
    # be a 256 MiB block, so the largest block is capped at 16 MiB
    args = _sup_stft_args(n, lead)
    size = args[0].size
    want = oracles.centered_sup_stft(*args, max(1, 2**16 // size))
    for rows in (1, 7, min(n, 2**20 // size)):
        monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", rows * size)
        assert np.array_equal(analysis._sup_stft(*args).view(np.uint64), want.view(np.uint64))


def _centered_dense_sjostrand(symbol, s):
    """The dense sjostrand_norm in the centered form: for each x translate,
    conj(phi1) shifted by i1 - N/2 steps times sigma through ft_along
    along x, then oracles.centered_sup_stft along xi."""
    grid = symbol.grid
    n = grid.points_per_axis
    window1 = np.conj(analysis._gaussian(grid.axis_points()))
    window2 = analysis._gaussian(grid.axis_frequencies())
    weight = grid_module.bessel_weights(grid, s)
    best = np.zeros((n, n))
    for i1 in range(n):
        translate1 = window1[(np.arange(n) - i1 + n // 2) % n]
        partial = grid_module.ft_along(translate1[:, None] * symbol.values, 0, grid.spacing)
        sup = oracles.centered_sup_stft(partial, window2, grid.dual_spacing, weight, max(1, 2**16 // n**2))
        np.maximum(best, sup, out=best)
    return float(grid.dual_spacing * grid.spacing * best.sum())


@pytest.mark.parametrize("n", [16, 64])
def test_dense_sjostrand_is_the_centered_form_bitwise(n):
    # at N = 64 a dense call takes 0.2 s and its oracle 0.3 s, so there
    # only the two symbols that have no factors are run
    grid = UniformGrid(1, n, n / 4.0)
    for name, sigma in _oracle_symbols(grid).items():
        if n == 64 and sigma.factors is not None:
            continue
        dense = sigma.with_values(sigma.values)
        for s in (0.0, 0.5):
            got, want = sjostrand_norm(dense, s), _centered_dense_sjostrand(dense, s)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), (name, s)


@pytest.mark.parametrize("n", [6, 12, 24, 96])
def test_centered_kernel_moves_spectra_and_tables_by_roundoff_off_powers_of_two(monkeypatch, n):
    # at other even N the kernel's sign modulation and gather_stft's
    # half-period shift round differently: every block and stft move by a
    # few eps of max|V|, and the norm tables by a few units in the last place
    grid = UniformGrid(1, n, n / 4.0)
    fs = [make_bandlimited(grid, seed=seed, modes=min(3, n // 4)) for seed in (7, 8)]
    window = default_window(grid)
    arrays = [f.values for f in fs]
    wants = [oracles.gather_stft(v, window.values, grid.spacing) for v in arrays]
    bounds = [4 * np.finfo(float).eps * np.abs(want).max() for want in wants]
    for f, want, bound in zip(fs, wants, bounds):
        assert np.abs(stft(f, window) - want).max() <= bound
    for rows in (n, 5):
        per_function = -(-n // rows)  # blocks per function, the last may be partial
        blocks = zip(analysis._spectra(arrays, window.values, grid.spacing, rows),
                     _gather_spectra(arrays, window.values, grid.spacing, rows), strict=True)
        for k, ((got_start, got), (want_start, want)) in enumerate(blocks):
            assert got_start == want_start and got.shape == want.shape
            assert np.abs(got - want).max() <= bounds[k // per_function]
    names = [name for name, _ in EXPONENTS]

    def tables():
        return [modulation_norms(fs, names, names)] + [
            amalgam_norms(fs, names, names, s) for s in (0.0, 0.5)]

    got = tables()
    monkeypatch.setattr(analysis, "_spectra", _gather_spectra)
    for got_table, want_table in zip(got, tables(), strict=True):
        assert _ulps(got_table, want_table) <= 4


@pytest.mark.parametrize("n", [6, 12, 24, 96])
def test_fft_order_kernel_moves_values_by_ulps_off_powers_of_two(monkeypatch, n):
    # at other even N the kernel (the sign modulation of the array rolled
    # by N/2) and the centered ft_along form of the oracle round
    # differently, so the sup-STFT and both Sjostrand paths move, but by a
    # few units in the last place; at N = 96 the dense path and its oracle
    # take 2 s a symbol, so there only the factored path is run
    for lead in ((), (3,)):
        args = _sup_stft_args(n, lead)
        got, want = analysis._sup_stft(*args), oracles.centered_sup_stft(*args, n)
        assert _ulps(got, want) <= 4, lead
    grid = UniformGrid(1, n, n / 4.0)
    symbols = {name: sigma for name, sigma in _oracle_symbols(grid).items()
               if sigma.factors is not None or n < 96}
    got = {(name, s): sjostrand_norm(sigma, s) for name, sigma in symbols.items() for s in (0.0, 0.5)}
    # the factored path with the centered sup-STFT, and the dense one
    monkeypatch.setattr(analysis, "_sup_stft", lambda *args: oracles.centered_sup_stft(*args, n))
    for (name, s), value in got.items():
        sigma = symbols[name]
        if sigma.factors is None:
            want = _centered_dense_sjostrand(sigma, s)
        else:
            want = sjostrand_norm(sigma, s)
        assert _ulps(value, want) <= 4, (name, s)


def test_sjostrand_memory_is_bounded_by_the_block():
    # the block's complex buffer and its real magnitudes, plus 1 MiB for
    # the O(N) vectors; every translate at once took 192 MB here
    sigma = random_phase_multiplier(UniformGrid(1, 2048, 8.0), 64, 0)
    tracemalloc.start()
    try:
        sjostrand_norm(sigma, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * analysis._BLOCK_ENTRIES + 2**20


def test_stft_holds_one_array():
    # stft returns the kernel's centered block with no copy; 1 MiB covers
    # the O(N) vectors and the FFT's line buffers
    n = 1024
    grid = UniformGrid(1, n, 16.0)
    f = make_bandlimited(grid, seed=5, modes=3)
    g = default_window(grid)
    tracemalloc.start()
    try:
        stft(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n + 2**20


def test_stft_and_tables_run_their_kernels_once_per_function(monkeypatch, tiny_grid):
    n = tiny_grid.points_per_axis
    fs = [make_bandlimited(tiny_grid, seed=seed, modes=3) for seed in (2, 3, 4)]
    spectra = []  # (shape, dtype) of each array the kernel yields
    kernel = analysis._spectra

    def counted_spectra(arrays, window, spacing, rows):
        for start, values in kernel(arrays, window, spacing, rows):
            spectra.append((values.shape, values.dtype))
            yield start, values

    monkeypatch.setattr(analysis, "_spectra", counted_spectra)
    # stft and both tables read the one kernel, once per function
    stft(fs[0], default_window(tiny_grid))
    assert spectra == [((n, n), np.complex128)]
    for k in (1, 3):
        for call in (
            lambda: modulation_norms(fs[:k], ["1", "2"], ["2", "inf"]),
            lambda: amalgam_norms(fs[:k], ["1", "2"], ["2", "inf"], 0.5),
        ):
            spectra.clear()
            assert call().shape == (k, 2, 2)
            assert spectra == [((n, n), np.complex128)] * k


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_tables_of_a_run_match_one_function_tables(tiny_grid, s):
    # a weight multiply or a buffer leaking from one function to the next
    # would make a function's entries depend on its neighbours
    fs = [make_bandlimited(tiny_grid, seed, modes) for seed, modes in ((1, 3), (2, 1), (3, 5))]
    fs[1] = SampledFunction(tiny_grid, 40.0 * fs[1].values)
    names = [name for name, _ in EXPONENTS]
    for order in (fs, fs[::-1]):
        modulation = modulation_norms(order, names, names)
        amalgam = amalgam_norms(order, names, names, s)
        assert modulation.shape == amalgam.shape == (3, len(names), len(names))
        for k, f in enumerate(order):
            alone = modulation_norms([f], names, names)[0]
            assert np.array_equal(bits(modulation[k]), bits(alone))
            alone = amalgam_norms([f], names, names, s)[0]
            assert np.array_equal(bits(amalgam[k]), bits(alone))


def test_tables_do_not_depend_on_the_cpu_count(monkeypatch, tiny_grid):
    # five functions split unevenly over two and three CPUs
    fs = [make_bandlimited(tiny_grid, seed, modes=3) for seed in range(5)]
    names = [name for name, _ in EXPONENTS]
    runs = []  # (first function, functions, thread) per spectra kernel
    kernel = analysis._spectra

    def recorded_spectra(chunk, window, spacing, rows):
        first = next(k for k, f in enumerate(fs) if f.values is chunk[0])
        runs.append((first, len(chunk), threading.current_thread()))
        yield from kernel(chunk, window, spacing, rows)

    def chunks(call):
        runs.clear()
        result = call()
        # one kernel per chunk, each on its own thread, the caller's first;
        # runs keeps the Thread objects alive, so unlike the idents an exited
        # worker's thread cannot be reused and compare equal
        assert len({thread for *_, thread in runs}) == len(runs)
        assert min(runs)[2] is threading.current_thread()
        return result, [size for _, size, _ in sorted(runs)]

    monkeypatch.setattr(analysis, "_spectra", recorded_spectra)
    tables = {}
    for cpus, sizes in ((1, [5]), (2, [2, 3]), (3, [1, 2, 2])):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        tables[cpus] = []
        for call in (
            lambda: modulation_norms(fs, names, names),
            lambda: amalgam_norms(fs, names, names, 0.5),
        ):
            table, split = chunks(call)
            assert split == sizes
            tables[cpus].append(table)
    for cpus in (2, 3):
        for got, want in zip(tables[cpus], tables[1], strict=True):
            assert np.array_equal(bits(got), bits(want))
    # never more chunks than functions
    assert chunks(lambda: modulation_norms(fs[:2], names, names))[1] == [1, 1]


def test_tables_run_workers_in_the_callers_errstate(monkeypatch, tiny_grid):
    # |V_g f|^2 overflows only for the last function, which the second
    # CPU's worker thread takes
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
    fs = [make_bandlimited(tiny_grid, seed, modes=3) for seed in (1, 2)]
    fs.append(SampledFunction(tiny_grid, 1e300 * fs[0].values))
    with np.errstate(all="raise"):
        modulation_norms(fs[:2], ["2"], ["2"])
        with pytest.raises(FloatingPointError):
            modulation_norms(fs, ["2"], ["2"])
    with np.errstate(over="ignore"):
        assert np.isinf(modulation_norms(fs, ["2"], ["2"])[2, 0, 0])

    def failing_spectra(chunk, window, spacing, rows):
        if chunk[0] is not fs[0].values:
            raise ZeroWindow("raised in a worker")
        yield from ()

    monkeypatch.setattr(analysis, "_spectra", failing_spectra)
    with pytest.raises(ZeroWindow, match="raised in a worker"):
        amalgam_norms(fs, ["2"], ["2"])


def test_tables_need_functions_on_one_grid(tiny_grid):
    f = make_bandlimited(tiny_grid, seed=1, modes=3)
    wider = UniformGrid(1, tiny_grid.points_per_axis, 2 * tiny_grid.extent)
    other = make_bandlimited(wider, seed=1, modes=3)
    for table in (modulation_norms, amalgam_norms):
        with pytest.raises(GridMismatch):
            table([f, other], ["2"], ["2"])
        with pytest.raises(InvalidValue):
            table([], ["2"], ["2"])
        # an empty exponent list is named, not left to a numpy error
        with pytest.raises(InvalidValue, match="in ps"):
            table([f], [], ["2"])
        with pytest.raises(InvalidValue, match="in qs"):
            table([f], ["2"], [])


def test_stft_at_origin_is_window_energy(default_grid):
    g = unit_gaussian(default_grid)
    v = stft(g, g)
    n = default_grid.points_per_axis
    assert abs(v[n // 2, n // 2] - 1.0) <= 1e-10


def test_stft_gaussian_closed_form(default_grid):
    g = unit_gaussian(default_grid)
    v = stft(g, g)
    x = default_grid.axis_points()
    xi = default_grid.axis_frequencies()
    want = oracles.gauss_stft_magnitude(x[:, None], xi[None, :])
    window = (np.abs(x) <= 3.0)[:, None] & (np.abs(xi) <= 3.0)[None, :]
    err = np.abs(np.abs(v) - want)[window]
    assert (err / want[window]).max() <= 1e-6


def test_stft_translation_covariance(default_grid):
    f = make_bandlimited(default_grid, seed=6)
    g = unit_gaussian(default_grid)
    a = 1.0
    shift = round(a / default_grid.spacing)
    lhs = np.abs(stft(translate(f, a), g))
    rhs = np.roll(np.abs(stft(f, g)), shift, axis=0)
    assert rel_err(lhs, rhs) <= 1e-12


def test_stft_errors(default_grid, tiny_grid):
    f = make_bandlimited(default_grid, seed=0)
    with pytest.raises(GridMismatch):
        stft(f, unit_gaussian(tiny_grid))
    zero = SampledFunction(default_grid, np.zeros(default_grid.points_per_axis, complex))
    with pytest.raises(ZeroWindow):
        stft(f, zero)


def test_lp_norm_single_cell(default_grid):
    n = default_grid.points_per_axis
    values = np.zeros(n, dtype=complex)
    values[10] = 1.0
    f = SampledFunction(default_grid, values)
    for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
        assert abs(lp_norm(f, from_p(p)) - default_grid.spacing ** (1.0 / p)) <= 1e-14
    assert lp_norm(f, from_p("inf")) == 1.0


def test_lp_norm_sup_of_unimodular(default_grid):
    x = default_grid.axis_points()
    f = SampledFunction(default_grid, np.exp(1j * x**2))
    assert abs(lp_norm(f, from_p("inf")) - 1.0) <= 1e-14


def test_sobolev_norm_reduces_to_lp(default_grid):
    f = make_bandlimited(default_grid, seed=12)
    for p in (1.0, 2.0):
        assert abs(sobolev_norm(f, from_p(p), 0.0) - lp_norm(f, from_p(p))) <= 1e-12


def test_sobolev_norm_on_pure_mode(default_grid):
    x = default_grid.axis_points()
    xi_k = 5.0 / default_grid.extent
    mode = SampledFunction(default_grid, np.exp(2j * np.pi * xi_k * x))
    s = 1.7
    want = (1.0 + xi_k**2) ** (s / 2.0) * lp_norm(mode, TWO)
    assert abs(sobolev_norm(mode, TWO, s) - want) <= 1e-10 * want


def test_sobolev_monotone_in_s_at_p2(default_grid):
    for seed in range(5):
        f = make_bandlimited(default_grid, seed)
        norms = [sobolev_norm(f, TWO, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


EXPONENTS = (("1", 1.0), ("4/3", 4.0 / 3.0), ("2", 2.0), ("4", 4.0), ("inf", np.inf))


def _oracle_lp(mags, p, cell, axis=None):
    if p == np.inf:
        return mags.max(axis=axis)
    return (cell * (mags**p).sum(axis=axis)) ** (1.0 / p)


def test_norm_tables_match_direct_stft(tiny_grid):
    f = make_bandlimited(tiny_grid, seed=5, modes=3)
    mags = np.abs(oracles.direct_stft(f.values, unit_gaussian(tiny_grid).values, tiny_grid))
    h, dual = tiny_grid.spacing, 1.0 / tiny_grid.extent
    s = 0.5
    weighted = mags * (1.0 + tiny_grid.axis_frequencies() ** 2)[None, :] ** (s / 2.0)
    names = [name for name, _ in EXPONENTS]
    modulation = modulation_norms([f], names, names)[0]
    amalgam = amalgam_norms([f], names, names, s=s)[0]
    for i, (p_name, p) in enumerate(EXPONENTS):
        for j, (q_name, q) in enumerate(EXPONENTS):
            want = _oracle_lp(_oracle_lp(mags, p, h, axis=0), q, dual)
            assert abs(modulation[i, j] - want) <= 1e-12 * want, (p_name, q_name)
            assert modulation[i, j] == modulation_norm(f, p_name, q_name)
            want = _oracle_lp(_oracle_lp(weighted, q, dual, axis=1), p, h)
            assert abs(amalgam[i, j] - want) <= 1e-12 * want, (p_name, q_name)
            assert amalgam[i, j] == amalgam_norm(f, p_name, q_name, s)


def test_modulation_isometry(bandlimited_suite):
    for f in bandlimited_suite:
        m = modulation_norm(f, TWO, TWO)
        l2 = lp_norm(f, TWO)
        assert abs(m - l2) <= 1e-4 * l2


def test_modulation_of_zero(default_grid):
    zero = SampledFunction(default_grid, np.zeros(default_grid.points_per_axis, complex))
    assert modulation_norm(zero, TWO, TWO) == 0.0


def test_amalgam_isometry(bandlimited_suite):
    for f in bandlimited_suite:
        w = amalgam_norm(f, TWO, TWO, 0.0)
        l2 = lp_norm(f, TWO)
        assert abs(w - l2) <= 1e-4 * l2


def test_amalgam_weight_monotone(default_grid):
    f = make_bandlimited(default_grid, seed=8)
    p, q = from_p(2), from_p(4)
    assert amalgam_norm(f, p, q, 1.0) >= amalgam_norm(f, p, q, 0.5)
    assert amalgam_norm(f, p, q, 0.5) >= amalgam_norm(f, p, q, 0.0)


def test_amalgam_bessel_lift_two_sided(default_grid):
    # <D>^{-s} maps the s=0 space onto the weighted one; on a fixed lattice
    # that is a two-sided norm equivalence, so the ratios stay in a band
    p, q, s = from_p(4), from_p(2), 0.8
    ratios = []
    for seed in range(10):
        f = make_bandlimited(default_grid, seed)
        lifted = amalgam_norm(bessel_potential(f, -s), p, q, s)
        base = amalgam_norm(f, p, q, 0.0)
        ratios.append(lifted / base)
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() <= 10.0


def test_amalgam_mixed_norm_monotonicity(default_grid):
    # growing either exponent can only shrink the finite-lattice norm up to
    # a window constant; measured as a bounded ratio band over a suite
    ladder = [(from_p(1), from_p(1)), (from_p(2), from_p(2)), (from_p(4), from_p(4)),
              (from_p("inf"), from_p("inf"))]
    for (p1, q1), (p2, q2) in zip(ladder, ladder[1:]):
        ratios = []
        for seed in range(10):
            f = make_bandlimited(default_grid, seed)
            ratios.append(amalgam_norm(f, p2, q2, 0.0) / amalgam_norm(f, p1, q1, 0.0))
        assert max(ratios) <= 10.0


def test_fourier_amalgam_modulation_identity():
    # hat(f) measured in M^{p,q} against f in W^{q,p}; on the self-dual grid
    # the two lattices coincide and the ratio is 1 to rounding
    grid = UniformGrid(1, 256, 16.0)
    pairs = [(from_p(1), from_p(2)), (from_p(2), from_p(4)), (from_p(4), from_p(1)),
             (from_p("inf"), from_p(2)), (from_p(2), from_p(2))]
    for p, q in pairs:
        ratios = []
        for seed in range(20):
            f = make_bandlimited(grid, seed)
            m = modulation_norm(forward_ft(f), p, q)
            w = amalgam_norm(f, q, p, 0.0)
            ratios.append(m / w)
        ratios = np.array(ratios)
        spread = ratios.max() / ratios.min() - 1.0
        assert spread <= 5e-2, (str(p), str(q), spread)


def test_norm_homogeneity_and_definiteness(default_grid):
    f = make_bandlimited(default_grid, seed=14)
    scaled = SampledFunction(default_grid, 3.5 * f.values)
    for norm in (
        lambda g: lp_norm(g, from_p(4)),
        lambda g: sobolev_norm(g, TWO, 0.7),
        lambda g: modulation_norm(g, from_p(2), from_p(4)),
        lambda g: amalgam_norm(g, from_p(4), from_p(2), 0.3),
    ):
        assert abs(norm(scaled) - 3.5 * norm(f)) <= 1e-8 * norm(scaled)
        assert norm(f) > 0.0


def test_sjostrand_constant_is_window_transform_l1():
    grid = UniformGrid(1, 128, 8.0)
    sigma = constant_symbol(grid)
    got = sjostrand_norm(sigma, 0.0)
    # ||Phi_hat||_{L^1} for the product Gaussian window, by direct quadrature
    xi = grid.axis_frequencies()
    x = grid.axis_points()
    hat1 = np.abs(oracles.direct_forward_ft(2.0**0.25 * np.exp(-np.pi * x**2) + 0j, grid))
    # second factor lives on the dual axis; its transform comes out on x
    g2 = 2.0**0.25 * np.exp(-np.pi * xi**2)
    omega = grid.axis_points()
    hat2 = np.abs(grid.dual_spacing * np.exp(-2j * np.pi * np.outer(omega, xi)) @ g2)
    want = (grid.dual_spacing * hat1.sum()) * (grid.spacing * hat2.sum())
    assert abs(got - want) <= 1e-4 * want


def test_sjostrand_shift_invariance():
    grid = UniformGrid(1, 64, 8.0)
    const = constant_symbol(grid)
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    plane = const.with_values(np.exp(2j * np.pi * (x * 1.0 + xi * 2.0)))
    a = sjostrand_norm(const, 0.0)
    b = sjostrand_norm(plane, 0.0)
    assert abs(a - b) <= 1e-8 * a


def test_sjostrand_triangle_inequality():
    grid = UniformGrid(1, 64, 8.0)
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    base = constant_symbol(grid)
    s1 = base.with_values(np.exp(-np.pi * (x**2 + xi**2)) + 0j)
    s2 = base.with_values(np.exp(2j * np.pi * x * xi) * np.exp(-np.pi * xi**2))
    both = base.with_values(s1.values + s2.values)
    assert sjostrand_norm(both) <= (sjostrand_norm(s1) + sjostrand_norm(s2)) * (1 + 1e-10)


def test_sjostrand_dense_agrees_with_factored():
    for n, weights in ((32, (0.0, 0.5)), (64, (0.5,))):
        # N/(2L) = 8 leaves room for the phases-4 bumps
        grid = UniformGrid(1, n, n / 16.0)
        shift = round(1.0 / grid.spacing) * grid.spacing
        symbols = {
            "bump": gaussian_bump_symbol(grid),
            "multiplication": multiplication_symbol(
                grid, 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2)
            ),
            "translation": translation_symbol(grid, shift),
            "phases-4": random_phase_multiplier(grid, 4, seed=0),
        }
        for name, sigma in symbols.items():
            assert sigma.factors is not None, name
            for s in weights:
                fast = sjostrand_norm(sigma, s)
                # the dense twin has no factors, so it takes the dense path
                dense = sjostrand_norm(sigma.with_values(sigma.values), s)
                assert abs(fast - dense) <= 1e-10 * dense, (n, name, s)


def _oracle_symbols(grid):
    """Factored symbols and two dense-only ones: a seeded random complex
    sigma and the plane wave times Gaussian of the triangle test."""
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((2,) + grid.shape * 2)
    dense = constant_symbol(grid).with_values
    return {
        "bump": gaussian_bump_symbol(grid),
        "multiplication": multiplication_symbol(
            grid, 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2)
        ),
        "phases-1": random_phase_multiplier(grid, 1, seed=0),
        "random": dense(noise[0] + 1j * noise[1]),
        "plane-gauss": dense(np.exp(2j * np.pi * x * xi) * np.exp(-np.pi * xi**2)),
    }


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("s", [0.0, 0.5])
def test_sjostrand_paths_match_brute_force_oracle(monkeypatch, n, s):
    # N/(2L) = 2 leaves room for one mode of phases; besides the default
    # block, three translates per block of a vector (the factored path)
    # and of an N x N array (the dense path) leave partial last blocks
    grid = UniformGrid(1, n, n / 4.0)
    symbols = _oracle_symbols(grid)
    wants = {name: oracles.direct_sjostrand(sigma.values, grid, s) for name, sigma in symbols.items()}
    for block in (analysis._BLOCK_ENTRIES, 3 * n, 3 * n * n):
        monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", block)
        for name, sigma in symbols.items():
            twin = sigma.with_values(sigma.values)
            assert twin.factors is None
            for got in (sjostrand_norm(sigma, s), sjostrand_norm(twin, s)):
                assert abs(got - wants[name]) <= 1e-12 * wants[name], (n, s, name, block)


def _marked_symbols(grid):
    """Products with a None factor, identically 1: three multipliers and
    a multiplication."""
    return {
        "constant": constant_symbol(grid),
        "bessel": bessel_symbol(grid, -1.0),
        "phases-1": random_phase_multiplier(grid, 1, seed=0),
        "multiplication": multiplication_symbol(
            grid, 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2)
        ),
    }


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("s", [0.0, 0.5])
def test_marked_sjostrand_path_matches_brute_force_oracle(n, s):
    grid = UniformGrid(1, n, n / 4.0)
    for name, sigma in _marked_symbols(grid).items():
        assert any(f is None for f in sigma.factors), name
        want = oracles.direct_sjostrand(sigma.values, grid, s)
        assert abs(sjostrand_norm(sigma, s) - want) <= 1e-12 * want, (n, s, name)


@pytest.mark.parametrize("n", [64, 256])
def test_marked_sjostrand_path_matches_the_sup_over_translates(n):
    # the same factors with ones for None take every translate through _sup_stft
    grid = UniformGrid(1, n, n / 16.0)
    for name, sigma in _marked_symbols(grid).items():
        unmarked = PhaseSpaceSymbol.product(grid, *sigma._factor_arrays())
        assert all(f is not None for f in unmarked.factors)
        for s in (0.0, 0.5):
            want = sjostrand_norm(unmarked, s)
            assert abs(sjostrand_norm(sigma, s) - want) <= 1e-14 * want, (n, name, s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf"), 1e4])
def test_weight_order_must_be_finite(monkeypatch, tiny_grid, s):
    # rejected by bessel_weights, naming the order, before any transform
    # is made; at |xi| <= 2 the weights <xi>^s overflow for s = 1e4, which
    # must raise rather than warn and return nan
    monkeypatch.setattr(analysis, "_windowed_spectra", None)
    monkeypatch.setattr(analysis, "_sup_stft", None)
    monkeypatch.setattr(analysis, "_spectra", None)
    monkeypatch.setattr(grid_module, "forward_ft", None)
    f = make_bandlimited(tiny_grid, seed=1, modes=3)
    with pytest.raises(InvalidValue, match=f"s={s!r}"):
        amalgam_norm(f, "2", "2", s)
    with pytest.raises(InvalidValue, match=f"s={s!r}"):
        amalgam_norms([f], ["1", "2"], ["2"], s)
    with pytest.raises(InvalidValue, match=f"s={s!r}"):
        sjostrand_norm(gaussian_bump_symbol(tiny_grid), s)
    with pytest.raises(InvalidValue, match=f"s={s!r}"):
        sobolev_norm(f, "2", s)
    with pytest.raises(InvalidValue, match=f"s={s!r}"):
        bessel_symbol(tiny_grid, s)
    with pytest.raises(InvalidValue, match=f"s={s!r}"):
        lift_symbol(constant_symbol(tiny_grid), s)


def test_sjostrand_factored_path_scales_past_dense_limit():
    # the dense path refuses N > 256 with TooLarge, so a finite value here
    # means the rank-one bump took the factored path
    fine = sjostrand_norm(gaussian_bump_symbol(UniformGrid(1, 1024, 32.0)))
    coarse = sjostrand_norm(gaussian_bump_symbol(UniformGrid(1, 128, 8.0)))
    assert np.isfinite(fine)
    assert abs(fine - coarse) <= 1e-10 * coarse


def test_sjostrand_dense_symbol_past_limit_is_too_large():
    grid = UniformGrid(1, 512, 16.0)
    dense = constant_symbol(grid).with_values(constant_symbol(grid).values)
    assert dense.factors is None
    with pytest.raises(TooLarge):
        sjostrand_norm(dense)


def test_grid_rejects_dimension_other_than_one():
    with pytest.raises(DimensionUnsupported):
        UniformGrid(2, 8, 4.0)


def test_default_window_is_normalized(default_grid):
    g = default_window(default_grid)
    assert abs(lp_norm(g, TWO) - 1.0) <= 1e-10
