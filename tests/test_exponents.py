import math

import numpy as np
import pytest

from modop import ExponentValue, power_mean
from modop.exponents import from_p


def test_from_p_accepts_many_spellings():
    assert from_p(2).u == 0.5
    assert from_p("2").u == 0.5
    assert from_p("4/3").u == 0.75
    assert from_p("inf").u == 0.0
    assert from_p(math.inf).u == 0.0
    assert from_p(1).u == 1.0
    e = from_p(4)
    assert from_p(e) is e or from_p(e).u == e.u


def test_p_property_and_str():
    assert from_p("inf").p == math.inf
    assert from_p(2).p == 2.0
    assert from_p("4/3").is_infinite is False
    assert from_p("inf").is_infinite is True
    assert str(from_p("inf")) == "inf"
    assert str(from_p(2)) == "2"


def test_conjugate_is_involution():
    for p in ("1", "4/3", "2", "4", "inf"):
        e = from_p(p)
        assert e.conjugate.conjugate.u == e.u
        assert abs(e.u + e.conjugate.u - 1.0) == 0.0
    assert from_p(1).conjugate.u == 0.0
    assert from_p(2).conjugate.u == 0.5
    # 1 - u is exact for 1 <= p <= 2 (Sterbenz) and rounded once for p > 2,
    # so twice conjugating is off by at most half an ulp of 1 - u there
    for p in ("4/3", "3/2", "2", "5/2", "3", "5", "6", "7", "10"):
        e = from_p(p)
        if e.p <= 2:
            assert e.conjugate.conjugate.u == e.u
        assert abs(e.conjugate.conjugate.u - e.u) <= 2.0**-54
    assert from_p(3).conjugate.conjugate.u != from_p(3).u


def test_out_of_range_rejected():
    from modop import UnsupportedExponent

    with pytest.raises(UnsupportedExponent):
        from_p(0.5)
    # only the inf spellings and math.inf read as p = inf; no bool reads as p = 1
    for value in ("-inf", -math.inf, "-1e309", "1e309", "nan", math.nan, True, np.True_, False,
                  10**400, -10**400):
        with pytest.raises(UnsupportedExponent):
            from_p(value)
    # a value that is not a real scalar is named, not a bare TypeError
    for value in (None, [2], (2,), 2 + 0j, np.array([2.0])):
        with pytest.raises(UnsupportedExponent):
            from_p(value)
    with pytest.raises(UnsupportedExponent):
        power_mean(np.ones(3), None, 1.0)
    with pytest.raises(UnsupportedExponent):
        ExponentValue(1.5)
    with pytest.raises(UnsupportedExponent):
        ExponentValue(-0.1)
    with pytest.raises(UnsupportedExponent, match="must be finite"):
        ExponentValue(float("nan"))


def test_power_mean_matches_direct():
    rng = np.random.default_rng(0)
    mags = np.abs(rng.standard_normal((6, 5)))
    cell = 0.25
    for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
        got = power_mean(mags, from_p(p), cell, axis=1)
        want = (cell * (mags**p).sum(axis=1)) ** (1.0 / p)
        assert np.abs(got - want).max() <= 1e-14
    got = power_mean(mags, from_p("inf"), cell, axis=1)
    assert np.array_equal(got, mags.max(axis=1))


_MAGS = np.abs(np.random.default_rng(1).standard_normal((64, 64)))


@pytest.mark.parametrize("values, axis", [(_MAGS, 0), (_MAGS, 1), (_MAGS[5], None)])
def test_power_mean_powers_without_pow(values, axis):
    # p = 1 and 2 keep the bits of the pow form; p = 4 squares twice
    cell = 0.125
    for p in (1.0, 2.0, 4.0):
        want = (cell * (values**p).sum(axis=axis)) ** (1.0 / p)
        got = power_mean(values, from_p(p), cell, axis)
        if p == 4.0:
            assert np.all(np.abs(got - want) <= 1e-15 * want)
        else:
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_power_mean_scalar_reduction():
    mags = np.array([3.0, 4.0])
    assert abs(power_mean(mags, from_p(2), 1.0) - 5.0) <= 1e-14
    assert power_mean(mags, from_p("inf"), 1.0) == 4.0


def test_power_mean_four_thirds_multiplies_by_the_cube_root():
    # m * cbrt(m) against m ** (4/3), through zeros, underflow and
    # overflow.  Far from 1 the pow form is the less accurate one: it
    # raises m to 4/3 rounded to a double, off by about 7e-17 |ln m|
    # relative (2.6e-14 at m = 1e200).
    rng = np.random.default_rng(2)
    mags = np.abs(rng.standard_normal((4, 64)))
    mags[1, :3] = 0.0
    mags[2] *= 1e-300
    mags[3, 7] = 1e300
    cell = 0.125
    with np.errstate(over="ignore", under="ignore"):
        want = (cell * (mags ** (4.0 / 3.0)).sum(axis=1)) ** 0.75
        got = power_mean(mags, from_p("4/3"), cell, axis=1)
    assert got[2] == want[2] == 0.0 and got[3] == want[3] == np.inf
    assert np.all(np.abs(got[:2] - want[:2]) <= 1e-15 * want[:2])
    # exact on perfect cubes: 2^600 * 2^200 = 2^800, whose 3/4 power is 2^600
    assert power_mean(np.array([2.0**600]), from_p("4/3"), 1.0) == 2.0**600
