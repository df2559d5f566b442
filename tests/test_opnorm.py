import dataclasses
import itertools

import numpy as np
import pytest

from modop import (
    OperatorMatrix,
    PhaseSpaceSymbol,
    TooLarge,
    UniformGrid,
    UnsupportedExponent,
    as_matrix,
    bessel_symbol,
    constant_symbol,
    lift_symbol,
    estimate_norm,
    exact_norm,
    multiplication_symbol,
    norm_2,
    norm_p,
    random_phase_multiplier,
    sjostrand_norm,
    sobolev_opnorm,
)
from modop import opnorm
from modop.experiments import _auto_size, default_config
from modop.exponents import from_p
from modop.symbols import multiplication_profile, standard_suite

import oracles
from conftest import near_degenerate_matrix

# the 8x8 reference matrix; the general-p value comes from a multi-start
# projected-ascent search (400 starts here, 10^5-scale offline), which for
# nonnegative matrices finds the global optimum
FROZEN_SEED = 20260816
FROZEN_NORM_1 = 4.423482246508928
FROZEN_NORM_INF = 4.604759179773778
FROZEN_NORM_2 = 3.994125618884949
FROZEN_NORM_43 = 3.998348681477671


def frozen_matrix():
    entries = np.random.default_rng(FROZEN_SEED).uniform(0.0, 1.0, (8, 8))
    return OperatorMatrix(entries.astype(complex))


def random_matrix(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n, n)) * scale
    return OperatorMatrix(entries.astype(complex))


# ---------------------------------------------------------------------------
# exact endpoints


def test_exact_norms_match_brute_force():
    m = frozen_matrix()
    real = m.entries.real
    got1 = exact_norm(m, from_p(1))
    assert got1.method == "exact_1"
    assert got1.lower_bound_only is False
    assert abs(got1.value - oracles.brute_force_norm_1(real)) <= 1e-13
    assert abs(got1.value - FROZEN_NORM_1) <= 1e-12

    gotinf = exact_norm(m, from_p("inf"))
    assert gotinf.method == "exact_inf"
    assert abs(gotinf.value - oracles.brute_force_norm_inf(real)) <= 1e-13
    assert abs(gotinf.value - FROZEN_NORM_INF) <= 1e-12


def test_exact_norm_identity_and_multiplier():
    eye = OperatorMatrix(np.eye(6, dtype=complex))
    assert exact_norm(eye, from_p(1)).value == 1.0
    assert exact_norm(eye, from_p("inf")).value == 1.0
    d = np.diag(np.array([0.3, -2.5, 1.0, 0.7], dtype=complex))
    dm = OperatorMatrix(d)
    assert exact_norm(dm, from_p(1)).value == 2.5
    assert exact_norm(dm, from_p("inf")).value == 2.5


def test_exact_norm_rejects_interior_exponents():
    with pytest.raises(UnsupportedExponent):
        exact_norm(frozen_matrix(), from_p(2))


# ---------------------------------------------------------------------------
# p = 2 power iteration


def test_norm_2_against_jacobi_svd():
    m = frozen_matrix()
    est = norm_2(m)
    assert est.method == "power_2"
    assert abs(est.value - FROZEN_NORM_2) <= 1e-6
    for seed in range(4):
        m16 = random_matrix(16, seed)
        est = norm_2(m16)
        want = oracles.jacobi_spectral_norm(m16.entries)
        assert abs(est.value - want) <= 1e-6 * want
        assert est.lower_bound_only is False
        assert est.residual <= 1e-9


def test_jacobi_oracle_matches_lapack():
    # the oracle's round-robin rotations against numpy's SVD, odd sizes included
    rng = np.random.default_rng(5)
    for shape in ((7, 7), (16, 16), (5, 9), (9, 4)):
        real = rng.standard_normal(shape)
        for entries in (real, real + 1j * rng.standard_normal(shape)):
            want = np.linalg.norm(entries, 2)
            assert abs(oracles.jacobi_spectral_norm(entries) - want) <= 1e-13 * want


def test_norm_2_diagonal_and_unitary():
    d = np.diag(np.array([0.3, -2.5, 1.0, 0.7], dtype=complex))
    est = norm_2(OperatorMatrix(d))
    assert abs(est.value - 2.5) <= 1e-8
    grid = UniformGrid(1, 16, 4.0)
    f = oracles.dft_matrix(grid)
    # forward_ft maps l2(h) isometrically onto l2(1/L), so on raw samples
    # its entries scaled by sqrt((1/L) / h) have spectral norm 1
    m = OperatorMatrix(f * np.sqrt(grid.dual_spacing / grid.spacing))
    assert abs(norm_2(m).value - 1.0) <= 1e-8
    # the zero operator: power iteration stops at sigma = 0, and Boyd's
    # method resets its dead columns to ones and stops there too
    zero = OperatorMatrix(np.zeros((4, 4)))
    assert (norm_2(zero).value, norm_p(zero, 3).value) == (0.0, 0.0)
    assert repr(norm_2(zero)) == "NormEstimate(0, power_2, iters=1)"
    assert repr(norm_p(zero, 3)) == "NormEstimate(0, boyd_p, iters=2, lower bound)"


def test_norm_2_flags_nonconvergence(monkeypatch):
    # an impossible tolerance exhausts the cap; the best estimate comes
    # back flagged as a lower bound instead of raising
    monkeypatch.setattr(opnorm, "_TOL_2", 0.0)
    m = random_matrix(12, 3)
    est = norm_2(m)
    assert est.lower_bound_only is True
    assert est.iterations == 10_000
    want = oracles.jacobi_spectral_norm(m.entries)
    assert est.value <= want * (1.0 + 1e-10)
    assert est.value >= want * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# general p


def test_norm_p_identity_for_every_p():
    eye = OperatorMatrix(np.eye(8, dtype=complex))
    for p in ("4/3", "2", "3", "4"):
        est = norm_p(eye, from_p(p))
        assert abs(est.value - 1.0) <= 1e-8


def test_norm_p_agrees_with_norm_2():
    for seed in range(3):
        m = random_matrix(16, seed)
        a = norm_p(m, from_p(2)).value
        b = norm_2(m).value
        assert abs(a - b) <= 1e-6 * b


def test_norm_p_at_2_flags_an_unconverged_estimate():
    # the norm is 1 and power iteration creeps towards it, so an estimate
    # short of 1 must be flagged as a lower bound
    m = OperatorMatrix(near_degenerate_matrix().astype(complex))
    est = norm_p(m, from_p(2))
    assert est.method == "power_2"
    assert est == norm_2(m)
    assert est.lower_bound_only or abs(est.value - 1.0) <= 1e-8
    assert est.value <= 1.0 + 1e-12


def test_norm_p_43_matches_frozen_oracle():
    m = frozen_matrix()
    est = norm_p(m, from_p("4/3"))
    assert est.method == "boyd_p"
    assert est.lower_bound_only is True
    assert abs(est.value - FROZEN_NORM_43) <= 0.02 * FROZEN_NORM_43
    # and the in-test ascent oracle agrees with the frozen offline value
    fresh = oracles.ascent_norm_p(m.entries.real, 4.0 / 3.0, n_starts=200)
    assert abs(fresh - FROZEN_NORM_43) <= 1e-9


def test_norm_p_rejects_endpoints():
    m = frozen_matrix()
    with pytest.raises(UnsupportedExponent):
        norm_p(m, from_p(1))
    with pytest.raises(UnsupportedExponent):
        norm_p(m, from_p("inf"))


def test_norm_p_is_lower_bound():
    for seed in range(6):
        m = random_matrix(8, seed)
        est = norm_p(m, from_p(3))
        oracle = oracles.ascent_norm_p(m.entries.real, 3.0, n_starts=300)
        assert est.value <= oracle * (1.0 + 1e-8)
        assert est.value >= oracle * 0.98


def test_estimate_norm_dispatch():
    m = frozen_matrix()
    assert estimate_norm(m, from_p(1)).method == "exact_1"
    assert estimate_norm(m, from_p("inf")).method == "exact_inf"
    assert estimate_norm(m, from_p(2)).method == "power_2"
    assert estimate_norm(m, from_p(4)).method == "boyd_p"


def test_submultiplicativity():
    for p in ("1", "2", "inf"):
        pe = from_p(p)
        for seed in range(4):
            a = random_matrix(10, seed)
            b = random_matrix(10, seed + 100)
            ab = OperatorMatrix(a.entries @ b.entries)
            bound = estimate_norm(a, pe).value * estimate_norm(b, pe).value
            assert estimate_norm(ab, pe).value <= bound * 1.05


def test_riesz_thorin_convexity():
    # log ||A|| is convex in 1/p; with exact endpoints and lower-bound
    # interior estimates the discrete second differences can only dip
    # below convexity by the estimator slack
    exponents = ["1", "4/3", "2", "4", "inf"]
    us = [1.0, 0.75, 0.5, 0.25, 0.0]
    for seed in range(4):
        m = random_matrix(8, seed)
        logs = [np.log(estimate_norm(m, from_p(p)).value) for p in exponents]
        for i in (1, 2, 3):
            left = (us[i] - us[i + 1]) / (us[i - 1] - us[i + 1])
            interp = left * logs[i - 1] + (1.0 - left) * logs[i + 1]
            assert logs[i] <= interp + np.log(1.05)


# ---------------------------------------------------------------------------
# symbol-level norms


def test_sobolev_opnorm_constant():
    grid = UniformGrid(1, 64, 8.0)
    sigma = constant_symbol(grid)
    for s in (0.0, 0.5, 1.0):
        est = sobolev_opnorm(sigma, from_p(2), s)
        assert abs(est.value - 1.0) <= 1e-6
    est = sobolev_opnorm(sigma, from_p(1), 0.0)
    assert abs(est.value - 1.0) <= 1e-10


def test_sobolev_opnorm_multiplication():
    grid = UniformGrid(1, 64, 8.0)
    x = grid.axis_points()
    m_values = 1.0 + 0.5 * np.cos(2.0 * np.pi * x / grid.extent)
    sigma = multiplication_symbol(grid, m_values)
    est = sobolev_opnorm(sigma, from_p(1), 0.0)
    assert abs(est.value - np.abs(m_values).max()) <= 1e-10


def test_sobolev_opnorm_accepts_weyl_symbols():
    grid = UniformGrid(1, 64, 8.0)
    from modop import PhaseSpaceSymbol

    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    values = np.exp(-np.pi * (x**2 + xi**2)) + 0j
    weyl = PhaseSpaceSymbol(grid, values, "weyl")
    kn = PhaseSpaceSymbol(grid, values, "kn")
    from modop import u_transform

    a = sobolev_opnorm(weyl, from_p(2), 0.3)
    b = sobolev_opnorm(u_transform(weyl, "to_KN"), from_p(2), 0.3)
    assert abs(a.value - b.value) <= 1e-8 * b.value
    # and the tag matters: the same values read as KN give a different norm
    c = sobolev_opnorm(kn, from_p(2), 0.3)
    assert abs(a.value - c.value) > 1e-4 * c.value


def test_sobolev_opnorm_of_a_marked_weyl_multiplier_is_matrix_free():
    # u_transform keeps a multiplier's mark, so past the dense limit its
    # L^2 norm is still the closed form, not a TooLarge from as_matrix
    grid = UniformGrid(1, 2048, 16.0)
    rng = np.random.default_rng(59)
    b = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    est = sobolev_opnorm(PhaseSpaceSymbol.product(grid, None, b, "weyl"), from_p(2))
    assert est.method == "exact_2"
    assert est.value == np.abs(b).max()


# ---------------------------------------------------------------------------
# rank-one symbols: the matrix-free path against the dense path


def test_rank_one_path_matches_dense_twin():
    # the dense twin has the same values but no factors, so it takes as_matrix
    grid = UniformGrid(1, 128, 8.0)
    for name, sym in standard_suite(grid):
        twin = sym.with_values(sym.values)
        for p in ("1", "4/3", "2", "4", "inf"):
            for s in (0.0, 0.5):
                fast = sobolev_opnorm(sym, from_p(p), s)
                dense = sobolev_opnorm(twin, from_p(p), s)
                case = (name, p, s, fast.method, dense.method)
                if fast.method == "exact_2":
                    entries = as_matrix(lift_symbol(twin, -s)).entries
                    assert abs(fast.value - np.linalg.norm(entries, 2)) <= 1e-10, case
                    # power iteration certifies a lower bound only
                    assert fast.value >= dense.value, case
                    assert fast.lower_bound_only is False
                    continue
                assert fast.method == dense.method, case
                tol = 1e-12 if fast.method in ("exact_1", "exact_inf") else 1e-8
                assert abs(fast.value - dense.value) <= tol * dense.value, case


def test_sobolev_opnorm_is_estimate_norm_of_the_lifted_symbol():
    # one operator gets one answer, exact_2 included, from every entry point
    for grid in (UniformGrid(1, 64, 8.0), UniformGrid(1, 256, 16.0)):
        for name, sym in standard_suite(grid):
            for s in (0.0, 0.25):
                lifted = lift_symbol(sym, -s)
                for p in ("1", "4/3", "2", "4", "inf"):
                    want = estimate_norm(lifted, from_p(p))
                    assert sobolev_opnorm(sym, from_p(p), s) == want, (name, s, p)
    bessel = bessel_symbol(UniformGrid(1, 256, 16.0), -1.0)
    for est in (norm_2(bessel), norm_p(bessel, 2), estimate_norm(bessel, 2)):
        assert (est.value, est.method, est.lower_bound_only) == (1.0, "exact_2", False)


def test_exact_2_matches_jacobi_oracle():
    # |a| or |b <xi>^-s| constant makes max|a| max|b <xi>^-s| the exact value;
    # the Jacobi oracle realifies each N = 64 matrix to 128 columns
    grid = UniformGrid(1, 64, 4.0)
    exact = []
    for name, sym in standard_suite(grid):
        for s in (0.0, 0.5):
            est = sobolev_opnorm(sym, from_p(2), s)
            if est.method != "exact_2":
                continue
            exact.append((name, s))
            entries = as_matrix(lift_symbol(sym.with_values(sym.values), -s)).entries
            assert abs(est.value - oracles.jacobi_spectral_norm(entries)) <= 1e-10, (name, s)
    assert exact == [
        ("constant", 0.0), ("constant", 0.5), ("multiplication", 0.0),
        ("translation", 0.0), ("translation", 0.5), ("bessel", 0.0), ("bessel", 0.5),
        ("phases-4", 0.0), ("phases-4", 0.5),
    ]


def test_rank_one_path_has_no_matrix_limit():
    grid = UniformGrid(1, 2048, 16.0)
    for p in ("1", "2", "inf"):
        est = sobolev_opnorm(constant_symbol(grid), from_p(p), 0.0)
        assert abs(est.value - 1.0) <= 1e-12
    dense = PhaseSpaceSymbol(grid, np.ones((2048, 2048)), "kn")
    with pytest.raises(TooLarge):
        sobolev_opnorm(dense, from_p(2), 0.0)


def test_lifted_random_phase_multipliers_have_equal_1_and_inf_norms():
    # a lifted multiplier is a circulant, whose column and row sums of |A|
    # coincide: the threshold sweep's p = 1 and p = inf rows are one norm,
    # computed once as the row sums, so they agree to the bit
    cfg = default_config("threshold")
    for n_modes, seed in itertools.product(cfg.n_modes, cfg.seeds):
        grid = UniformGrid(1, _auto_size(cfg.L, n_modes), cfg.L)
        symbol = random_phase_multiplier(grid, n_modes, seed)
        for s in cfg.s:
            one = sobolev_opnorm(symbol, from_p(1), s)
            inf = sobolev_opnorm(symbol, from_p("inf"), s)
            assert (one.method, inf.method) == ("exact_1", "exact_inf")
            assert one.value == inf.value, (n_modes, seed, s)


def test_exact_2_comes_from_the_mark_not_the_values():
    # the same values, marked or not: only product's None makes a factor
    # identically 1, so an unmarked unit a gets power iteration
    grid = UniformGrid(1, 64, 4.0)
    n = grid.points_per_axis
    b = random_phase_multiplier(grid, 4, seed=0).factors[1]
    marked = PhaseSpaceSymbol.product(grid, None, b)
    unmarked = PhaseSpaceSymbol.product(grid, np.ones(n), b)
    assert np.array_equal(marked.values, unmarked.values)
    exact, power = norm_2(marked), norm_2(unmarked)
    assert (exact.method, power.method) == ("exact_2", "power_2")
    assert exact.value == np.abs(b).max()
    assert abs(power.value - exact.value) <= 1e-8 * exact.value
    # a marked b = 1 (a multiplication) has the closed form too
    x = grid.axis_points()
    multiplication = PhaseSpaceSymbol.product(grid, 1.0 + np.exp(-x**2), None)
    assert norm_2(multiplication).method == "exact_2"


def test_replaced_factors_say_what_the_symbol_is():
    # factors is the one record of a symbol's kind: a multiplier whose
    # factors dataclasses.replace makes (a, b) with a non-constant a is a
    # general product, with the estimates and Sjostrand norm of its twin
    grid = UniformGrid(1, 128, 8.0)
    multiplier = random_phase_multiplier(grid, 4, 0)
    sigma = dataclasses.replace(
        multiplier, factors=(multiplication_profile(grid), multiplier.factors[1])
    )
    twin = sigma.with_values(sigma.values)
    for p in ("1", "2", "inf"):
        got, want = estimate_norm(sigma, p), estimate_norm(twin, p)
        assert got.method == want.method, p
        assert abs(got.value - want.value) <= 1e-12 * want.value, p
    want = sjostrand_norm(twin)
    assert abs(sjostrand_norm(sigma) - want) <= 1e-12 * want
