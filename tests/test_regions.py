import math

import numpy as np
import pytest

from modop import (
    embeds_amalgam_into_sobolev,
    embeds_sobolev_into_amalgam,
    hormander_order,
    region,
    region_star,
    sharp_threshold,
    tau1,
    tau2,
)
from modop.exponents import from_p


def exp_from_u(u):
    return from_p("inf") if u == 0.0 else from_p(1.0 / u)


# ---------------------------------------------------------------------------
# worked values


def test_tau1_values():
    assert tau1(from_p(2), from_p(2)) == 0.0
    assert tau1(from_p(1), from_p(2)) == 0.5
    assert tau1(from_p(1), from_p(1)) == 1.0
    # at (4, 2) the first and third branch conditions hold with equality and
    # both give 0; the middle branch does not apply here
    assert tau1(from_p(4), from_p(2)) == 0.0


def test_tau2_values():
    assert tau2(from_p(2), from_p(1)) == 0.0
    assert tau2(from_p(2), from_p(2)) == 0.0
    assert tau2(from_p("inf"), from_p(1)) == 0.0


def test_region_labels():
    r = region_star(from_p(2), from_p(2))
    assert (r.family, r.index) == ("star", 1)
    assert r.boundary == frozenset({2, 3})
    assert r.name == "I*1"
    assert r.tau == 0.0

    r = region_star(from_p(1), from_p(2))
    assert (r.family, r.index, r.boundary) == ("star", 2, frozenset())

    r = region(from_p(2), from_p(2))
    assert (r.family, r.index) == ("plain", 1)
    assert r.boundary == frozenset({2, 3})

    r = region(from_p(2), from_p(1))
    assert (r.family, r.index, r.boundary) == ("plain", 1, frozenset())
    assert r.name == "I1"

    r = region_star(from_p(4), from_p(2))
    assert (r.index, r.boundary) == (1, frozenset({3}))


def test_embedding_verdicts():
    assert embeds_sobolev_into_amalgam(from_p(2), from_p(2), 0.0, 1) is True
    assert embeds_sobolev_into_amalgam(from_p(1), from_p(2), 0.5, 1) is False
    assert embeds_sobolev_into_amalgam(from_p(1), from_p(2), 0.6, 1) is True
    assert embeds_sobolev_into_amalgam(from_p(4), from_p(2), 0.25, 1) is True
    assert embeds_amalgam_into_sobolev(from_p(2), from_p(2), 0.0, 1) is True
    assert embeds_amalgam_into_sobolev(from_p(2), from_p(1), 0.0, 1) is True
    assert embeds_amalgam_into_sobolev(from_p("inf"), from_p(1), 0.0, 1) is True


def test_threshold_values():
    assert sharp_threshold(from_p(2), 1) == 0.0
    assert sharp_threshold(from_p(2), 5) == 0.0
    assert sharp_threshold(from_p(1), 1) == 0.5
    assert sharp_threshold(from_p("inf"), 2) == 1.0
    assert sharp_threshold(from_p(4), 2) == 0.5


def test_hormander_values():
    for p in ("1", "4/3", "2", "inf"):
        assert hormander_order(from_p(p), 1.0, 3) == 0.0
    assert hormander_order(from_p(1), 0.0, 1) == -0.5
    assert hormander_order(from_p("inf"), 0.5, 2) == -0.5
    with pytest.raises(ValueError):
        hormander_order(from_p(2), 1.5, 1)
    with pytest.raises(ValueError):
        hormander_order(from_p(2), -0.1, 1)


# ---------------------------------------------------------------------------
# boundary and symmetry properties


def _branch_values_star(u, v):
    return (0.0, u + v - 1.0, v - 0.5)


def _branch_values_plain(u, v):
    return (0.0, u + v - 1.0, v - 0.5)


def test_star_boundaries_agree():
    rng = np.random.default_rng(1)
    t = rng.uniform(0.0, 1.0, 10_000)

    # I*1 / I*2: v = 1 - u with v <= 1/2
    u = 0.5 + 0.5 * t
    v = 1.0 - u
    vals = _branch_values_star(u, v)
    assert np.abs(vals[0] - vals[1]).max() <= 1e-12

    # I*1 / I*3: v = 1/2 with u <= 1/2
    u = 0.5 * t
    v = np.full_like(u, 0.5)
    vals = _branch_values_star(u, v)
    assert np.abs(vals[0] - vals[2]).max() <= 1e-12

    # I*2 / I*3: u = 1/2 with v >= 1/2
    v = 0.5 + 0.5 * t
    u = np.full_like(v, 0.5)
    vals = _branch_values_star(u, v)
    assert np.abs(vals[1] - vals[2]).max() <= 1e-12


def test_plain_boundaries_agree():
    rng = np.random.default_rng(2)
    t = rng.uniform(0.0, 1.0, 10_000)

    # I1 / I2: v = 1 - u with v >= 1/2
    u = 0.5 * t
    v = 1.0 - u
    vals = _branch_values_plain(u, v)
    assert np.abs(vals[0] - vals[1]).max() <= 1e-12

    # I1 / I3: v = 1/2 with u >= 1/2
    u = 0.5 + 0.5 * t
    v = np.full_like(u, 0.5)
    vals = _branch_values_plain(u, v)
    assert np.abs(vals[0] - vals[2]).max() <= 1e-12

    # I2 / I3: u = 1/2 with v <= 1/2
    v = 0.5 * t
    u = np.full_like(v, 0.5)
    vals = _branch_values_plain(u, v)
    assert np.abs(vals[1] - vals[2]).max() <= 1e-12


def test_boundary_points_get_boundary_labels():
    r = region_star(from_p(2), exp_from_u(0.5))
    assert r.boundary
    # interior points carry a single label
    assert region_star(from_p(1), from_p(1)).boundary == frozenset()
    assert region(from_p(1), from_p(1)).boundary == frozenset()


def test_every_point_is_labelled():
    rng = np.random.default_rng(3)
    for u, v in rng.uniform(0.0, 1.0, (10_000, 2)):
        p, q = exp_from_u(u), exp_from_u(v)
        rs = region_star(p, q)
        rp = region(p, q)
        assert rs.family == "star" and rs.index in (1, 2, 3)
        assert rp.family == "plain" and rp.index in (1, 2, 3)


def test_tau_continuity():
    rng = np.random.default_rng(4)
    for _ in range(2_000):
        u, v = rng.uniform(0.0, 1.0, 2)
        du, dv = rng.uniform(-1e-9, 1e-9, 2)
        u2 = min(max(u + du, 0.0), 1.0)
        v2 = min(max(v + dv, 0.0), 1.0)
        a = tau1(exp_from_u(u), exp_from_u(v))
        b = tau1(exp_from_u(u2), exp_from_u(v2))
        assert abs(a - b) <= 2.0 * (abs(u2 - u) + abs(v2 - v)) + 1e-15
        a = tau2(exp_from_u(u), exp_from_u(v))
        b = tau2(exp_from_u(u2), exp_from_u(v2))
        assert abs(a - b) <= 2.0 * (abs(u2 - u) + abs(v2 - v)) + 1e-15


def test_duality_antisymmetry():
    # the two index functions are antisymmetric under conjugating both
    # exponents: tau1(p, q) = -tau2(p', q')
    rng = np.random.default_rng(5)
    for u, v in rng.uniform(0.0, 1.0, (10_000, 2)):
        p, q = exp_from_u(u), exp_from_u(v)
        assert abs(tau1(p, q) + tau2(p.conjugate, q.conjugate)) <= 1e-12


def test_sharp_threshold_is_negated_hormander():
    for u in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        for n in (1, 2, 3):
            p = exp_from_u(u)
            assert sharp_threshold(p, n) == -hormander_order(p, 0.0, n)


def test_if_proof_consistency():
    # on 1 < p <= 2 with q = 2, any s at or above n(1/p - 1/2) certifies
    # the Sobolev-to-amalgam inclusion
    rng = np.random.default_rng(6)
    for _ in range(2_000):
        u = rng.uniform(0.5, 1.0)
        if u == 1.0:
            continue
        n = int(rng.integers(1, 4))
        p = exp_from_u(u)
        s = n * (u - 0.5) + rng.uniform(0.0, 1.0)
        assert embeds_sobolev_into_amalgam(p, from_p(2), s, n) is True


def test_amalgam_into_sobolev_q2_range():
    # with q = 2 and s = 0 the inclusion into L^p holds exactly for
    # 1 <= p <= 2; beyond that tau2(p, 2) < 0 makes the condition fail
    for u in (1.0, 0.9, 0.75, 0.5):
        assert embeds_amalgam_into_sobolev(exp_from_u(u), from_p(2), 0.0, 1) is True
    for u in (0.4, 0.25, 0.0):
        assert embeds_amalgam_into_sobolev(exp_from_u(u), from_p(2), 0.0, 1) is False


def test_strictness_of_printed_inequalities():
    # p = 1, q = infinity admits equality; other q at p = 1 do not
    assert embeds_sobolev_into_amalgam(from_p(1), from_p("inf"), 0.0, 1) is True
    assert embeds_sobolev_into_amalgam(from_p(1), from_p(2), 0.5, 1) is False
    # p = infinity, q = 1 admits equality in the reverse direction
    assert embeds_amalgam_into_sobolev(from_p("inf"), from_p(1), 0.0, 1) is True
    assert embeds_amalgam_into_sobolev(from_p("inf"), from_p(2), 0.0, 1) is False
    assert embeds_amalgam_into_sobolev(from_p("inf"), from_p(2), -0.6, 1) is True
