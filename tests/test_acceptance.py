"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single verdict line (run with -s to see them all on a
green suite) and then asserts it, so a red line always fails the suite.
"""

import io
import math

import numpy as np
import pytest

from modop import (
    OperatorMatrix,
    PhaseSpaceSymbol,
    UniformGrid,
    amalgam_norm,
    as_matrix,
    bessel_potential,
    bessel_symbol,
    constant_symbol,
    default_config,
    embeds_amalgam_into_sobolev,
    embeds_sobolev_into_amalgam,
    emit_csv,
    exact_norm,
    forward_ft,
    from_p,
    hormander_order,
    kernel_to_weyl,
    kn_apply,
    lp_norm,
    modulation_norm,
    multiplication_symbol,
    norm_2,
    norm_p,
    region,
    region_star,
    run_embedding_sweep,
    run_identity_suite,
    run_threshold_sweep,
    sharp_threshold,
    tau1,
    tau2,
    translate,
    translation_symbol,
    u_transform,
    weyl_apply,
    weyl_to_kernel,
)
from modop.experiments import has_errors

import oracles
from conftest import make_bandlimited, rel_err


def report(number, name, ok, notes=()):
    for note in notes:
        print(f"ACCEPTANCE {number} {name}: note: {note}")
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_symbol(grid, seed, quantization="kn"):
    rng = np.random.default_rng(seed)
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    values = np.zeros((grid.points_per_axis, grid.points_per_axis), dtype=complex)
    for _ in range(6):
        cx, cxi = rng.uniform(-1.5, 1.5, 2)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        values += amp * np.exp(-np.pi * ((x - cx) ** 2 + (xi - cxi) ** 2))
    return PhaseSpaceSymbol(grid, values, quantization)


def test_acceptance_1_quantization_identities(default_grid):
    grid = default_grid
    worst = 0.0
    for seed in (3, 5, 11):
        f = make_bandlimited(grid, seed)
        worst = max(worst, rel_err(kn_apply(constant_symbol(grid), f).values, f.values))
        m = 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2)
        worst = max(
            worst,
            rel_err(kn_apply(multiplication_symbol(grid, m), f).values, m * f.values),
        )
        a = 2.0
        worst = max(
            worst,
            rel_err(
                kn_apply(translation_symbol(grid, a), f).values,
                np.roll(f.values, round(a / grid.spacing)),
            ),
        )
        worst = max(
            worst,
            rel_err(
                kn_apply(bessel_symbol(grid, 1.3), f).values,
                bessel_potential(f, 1.3).values,
            ),
        )
    report(1, "quantization-identities", worst <= 1e-10)


def test_acceptance_2_weyl_consistency(weyl_grid):
    grid = weyl_grid
    symbol = _random_symbol(grid, 7, "weyl")
    f = make_bandlimited(grid, 13, modes=4)
    quad = rel_err(
        weyl_apply(symbol, f).values,
        oracles.direct_weyl_apply(symbol.values, f.values, grid),
    )
    back = u_transform(u_transform(symbol, "to_KN"), "to_Weyl")
    round_trip = rel_err(back.values, symbol.values)
    intertwine = rel_err(
        as_matrix(symbol).entries,
        as_matrix(u_transform(symbol, "to_KN")).entries,
    )
    report(
        2,
        "weyl-consistency",
        quad <= 1e-8 and round_trip <= 1e-12 and intertwine <= 1e-10,
    )


def test_acceptance_3_kernel_correspondence(weyl_grid):
    grid = weyl_grid
    symbol = _random_symbol(grid, 17, "weyl")
    round_trip = rel_err(
        kernel_to_weyl(weyl_to_kernel(symbol)).values, symbol.values
    )
    kernel = weyl_to_kernel(symbol)
    f = make_bandlimited(grid, 19, modes=4)
    g = make_bandlimited(grid, 23, modes=4)
    lhs = grid.spacing * np.sum(weyl_apply(symbol, f).values * np.conj(g.values))
    rhs = oracles.rank_one_pairing(kernel.values, f.values, g.values, grid)
    pairing = abs(lhs - rhs) / abs(rhs)
    report(3, "kernel-correspondence", round_trip <= 1e-10 and pairing <= 1e-8)


def test_acceptance_4_norm_identities(default_grid, bandlimited_suite):
    grid = default_grid
    worst = 0.0
    for f in bandlimited_suite:
        base = lp_norm(f, 2)
        worst = max(worst, abs(modulation_norm(f, 2, 2) / base - 1.0))
        worst = max(worst, abs(amalgam_norm(f, 2, 2) / base - 1.0))
    isometry_ok = worst <= 1e-4

    # transform of an amalgam function lands in the modulation family with
    # the exponents swapped; the ratio must be flat across the suite
    spread = 0.0
    for p, q in ((1, 2), (2, 2), (4, "4/3"), ("inf", 1), (2, "inf")):
        ratios = np.array(
            [
                modulation_norm(forward_ft(f), p, q) / amalgam_norm(f, q, p)
                for f in bandlimited_suite
            ]
        )
        spread = max(spread, float(ratios.max() / ratios.min() - 1.0))
    report(4, "norm-identities", isometry_ok and spread <= 5e-2)


def test_acceptance_5_region_arithmetic():
    rng = np.random.default_rng(715)

    # each boundary segment, sampled densely: the two adjacent closed
    # forms and the library value must all coincide
    t = rng.uniform(0.0, 1.0, 10_000)
    segments = [
        (0.5 + 0.5 * t, 0.5 - 0.5 * t, tau1, lambda u, v: 0.0, lambda u, v: u + v - 1.0),
        (0.5 * t, np.full_like(t, 0.5), tau1, lambda u, v: 0.0, lambda u, v: v - 0.5),
        (np.full_like(t, 0.5), 0.5 + 0.5 * t, tau1, lambda u, v: u + v - 1.0, lambda u, v: v - 0.5),
        (0.5 * t, 1.0 - 0.5 * t, tau2, lambda u, v: 0.0, lambda u, v: u + v - 1.0),
        (0.5 + 0.5 * t, np.full_like(t, 0.5), tau2, lambda u, v: 0.0, lambda u, v: v - 0.5),
        (np.full_like(t, 0.5), 0.5 * t, tau2, lambda u, v: u + v - 1.0, lambda u, v: v - 0.5),
    ]
    boundary_err = 0.0
    for us, vs, tau, side_a, side_b in segments:
        for u, v in zip(us, vs):
            a = side_a(u, v)
            b = side_b(u, v)
            got = tau(from_p(1.0 / u if u else "inf"), from_p(1.0 / v if v else "inf"))
            boundary_err = max(boundary_err, abs(a - b), abs(got - a))
    boundary_ok = boundary_err <= 1e-12

    # duality between the two index functions, in the corrected form
    # tau1(p, q) = -tau2(p', q'); the sign is forced by the worked values
    # tau1(1, 1) = 1 and tau2(inf, inf) = -1 and by continuity
    duality_err = 0.0
    for u, v in rng.uniform(0.0, 1.0, (10_000, 2)):
        p = from_p(1.0 / u if u else "inf")
        q = from_p(1.0 / v if v else "inf")
        duality_err = max(
            duality_err, abs(tau1(p, q) + tau2(p.conjugate, q.conjugate))
        )
    duality_ok = duality_err <= 1e-12

    threshold_ok = all(
        sharp_threshold(from_p(p), n) == -hormander_order(from_p(p), 0.0, n)
        for p in (1, "4/3", 2, 3, 7, "inf")
        for n in (1, 2, 3)
    )

    verdict_ok = (
        embeds_sobolev_into_amalgam(from_p(2), from_p(2), 0.0, 1) is True
        and embeds_sobolev_into_amalgam(from_p(1), from_p(2), 0.5, 1) is False
        and embeds_sobolev_into_amalgam(from_p(1), from_p(2), 0.6, 1) is True
        and embeds_sobolev_into_amalgam(from_p(4), from_p(2), 0.25, 1) is True
        and embeds_amalgam_into_sobolev(from_p(2), from_p(2), 0.0, 1) is True
        and embeds_amalgam_into_sobolev(from_p(2), from_p(1), 0.0, 1) is True
        and embeds_amalgam_into_sobolev(from_p("inf"), from_p(1), 0.0, 1) is True
    )

    report(
        5,
        "region-arithmetic",
        boundary_ok and duality_ok and threshold_ok and verdict_ok,
        notes=["duality holds in the sign-corrected form tau1(p,q) = -tau2(p',q')"],
    )


def test_acceptance_6_embedding_sweep():
    records = run_embedding_sweep(jobs=4)
    ok = not has_errors(records)
    predicate_rows = [r for r in records if "predicate=true" in r.flags]
    bounded_rows = [r for r in records if r.method == "bounded-amalgam"]
    ok = ok and predicate_rows and bounded_rows
    ok = ok and all(r.flags.endswith("pass") and r.value < 10.0 for r in predicate_rows)
    ok = ok and all(r.flags.endswith("pass") and r.value < 10.0 for r in bounded_rows)
    report(6, "embedding-sweep", bool(ok))


def test_acceptance_7_threshold_experiment():
    records = run_threshold_sweep(jobs=4)
    ok = not has_errors(records)

    slopes = {}
    for r in records:
        if r.method == "slope-fit":
            se = float(r.flags.split("stderr=")[1].split(";")[0])
            slopes[(r.p, r.s)] = (r.value, se, r.flags)

    s_vals = sorted(s for (p, s) in slopes if p == 1.0)
    ok = ok and all(slopes[(2.0, s)][0] <= 0.05 for s in s_vals)
    ok = ok and slopes[(1.0, 0.0)][0] >= 0.3
    ok = ok and slopes[(1.0, 0.75)][0] <= 0.1
    for lo, hi in zip(s_vals, s_vals[1:]):
        b_lo, se_lo, _ = slopes[(1.0, lo)]
        b_hi, se_hi, _ = slopes[(1.0, hi)]
        ok = ok and b_hi <= b_lo + 2.0 * (se_lo + se_hi)
    for s in s_vals:
        b1, se1, _ = slopes[(1.0, s)]
        binf, seinf, _ = slopes[(math.inf, s)]
        ok = ok and abs(b1 - binf) <= max(0.02, 3.0 * (se1 + seinf))
    endpoint = sharp_threshold(from_p(1), 1)
    ok = ok and "endpoint-inconclusive" in slopes[(1.0, endpoint)][2]
    ok = ok and "endpoint-inconclusive" in slopes[(math.inf, endpoint)][2]
    report(7, "threshold-experiment", bool(ok))


def test_acceptance_8_norm_estimators():
    raw = np.random.default_rng(20260816).uniform(0.0, 1.0, (8, 8))
    entries = OperatorMatrix(raw.astype(complex))
    ok = (
        abs(exact_norm(entries, 1).value - oracles.brute_force_norm_1(raw)) <= 1e-13
    )
    ok = ok and (
        abs(exact_norm(entries, "inf").value - oracles.brute_force_norm_inf(raw))
        <= 1e-13
    )
    svd = oracles.jacobi_spectral_norm(raw)
    ok = ok and abs(norm_2(entries).value - svd) <= 1e-6
    frozen_43 = 3.998348681477671
    ok = ok and abs(norm_p(entries, "4/3").value - frozen_43) <= 0.02 * frozen_43

    # interpolation sanity: log-norm convex in the interpolation parameter
    values = [
        exact_norm(entries, 1).value,
        norm_p(entries, "4/3").value,
        norm_2(entries).value,
        norm_p(entries, 4).value,
        exact_norm(entries, "inf").value,
    ]
    logs = np.log(values)
    convex = all(
        logs[i + 1] <= 0.5 * (logs[i] + logs[i + 2]) + math.log(1.05)
        for i in range(len(logs) - 2)
    )
    report(8, "norm-estimators", bool(ok and convex))


def test_acceptance_9_determinism():
    identity_cfg = default_config("identity")
    identity_cfg = type(identity_cfg)(
        **{**identity_cfg.__dict__, "N": [64], "L": 8.0}
    )
    embed_cfg = default_config("embedding")
    embed_cfg = type(embed_cfg)(
        **{
            **embed_cfg.__dict__,
            "N": [64],
            "functions": 6,
            "p": [from_p(2)],
            "q": [from_p(2)],
            "s": [0.0],
        }
    )
    threshold_cfg = default_config("threshold")
    threshold_cfg = type(threshold_cfg)(
        **{
            **threshold_cfg.__dict__,
            "p": [from_p(2)],
            "s": [0.0, 0.5],
            "n_modes": [4, 8],
            "seeds": [0, 1],
        }
    )
    runs = [
        (run_identity_suite, identity_cfg),
        (run_embedding_sweep, embed_cfg),
        (run_threshold_sweep, threshold_cfg),
    ]
    ok = True
    for runner, cfg in runs:
        one = io.StringIO()
        many = io.StringIO()
        emit_csv(runner(cfg, jobs=1), one)
        emit_csv(runner(cfg, jobs=4), many)
        ok = ok and one.getvalue() == many.getvalue()
    report(9, "determinism", ok)
