import math
from fractions import Fraction

import pytest

from container_bench.rationals import (
    RationalParseError,
    ceil_frac,
    floor_frac,
    floor_times_ln,
    format_rational,
    ge_with_ln,
    le_with_ln,
    ln_interval,
    parse_rational,
    sign_with_ln,
)


def test_parse_rational_strict():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    for bad in ("0.1", "1e-3", "1/0", "a/b", ""):
        with pytest.raises(RationalParseError):
            parse_rational(bad)


def test_parse_rational_rejects_non_strings():
    for bad in (5, None, ["1/3"], Fraction(1, 3)):
        with pytest.raises(RationalParseError):
            parse_rational(bad)


def test_format_roundtrip():
    for f in (Fraction(1, 3), Fraction(0), Fraction(-5, 7), Fraction(4)):
        assert parse_rational(format_rational(f)) == f


def test_ceil_floor():
    assert ceil_frac(Fraction(7, 2)) == 4
    assert ceil_frac(Fraction(3)) == 3
    assert ceil_frac(Fraction(-7, 2)) == -3
    assert (ceil_frac(7, 2), ceil_frac(-7, 2), ceil_frac(6, 3)) == (4, -3, 2)
    assert ceil_frac(Fraction(7, 3), 2) == 2
    assert floor_frac(Fraction(7, 2)) == 3


@pytest.mark.parametrize("x", [Fraction(1), Fraction(2), Fraction(1, 2),
                               Fraction(12), Fraction(196), Fraction(3, 1000),
                               Fraction(1000003, 7)])
def test_ln_interval_brackets_float_log(x):
    lo, hi = ln_interval(x, 24)
    assert lo <= hi
    if x != 1:
        assert float(lo) <= math.log(float(x)) <= float(hi)
        assert float(hi) - float(lo) < 1e-12


def test_ln_interval_tightens():
    lo1, hi1 = ln_interval(Fraction(12), 4)
    lo2, hi2 = ln_interval(Fraction(12), 64)
    assert lo1 <= lo2 <= hi2 <= hi1


def test_sign_with_ln_exact_cases():
    assert sign_with_ln(Fraction(0), Fraction(0), Fraction(0), Fraction(5)) == 0
    assert sign_with_ln(Fraction(-3), Fraction(0), Fraction(0), Fraction(5)) == -1
    assert sign_with_ln(Fraction(2), Fraction(7), Fraction(0), Fraction(1)) == 1


def test_sign_with_ln_near_boundary():
    # ln(2) = 0.693147...: compare against tight rational approximations of
    # ln 2 from below and above; the guard band must escalate and still decide.
    near_below = Fraction(693147180559945308, 10**18)
    near_above = Fraction(693147180559945310, 10**18)
    assert sign_with_ln(-near_below, Fraction(1), Fraction(0), Fraction(2)) == 1
    assert sign_with_ln(-near_above, Fraction(1), Fraction(0), Fraction(2)) == -1


def test_quadratic_sign():
    # t^2 eps - 16 rho^2 ln(x)^2 at the bullet boundary
    rho, eps = Fraction(1, 2), Fraction(1, 16)
    x = 2 * rho / eps
    thr = 4 * float(rho) * math.log(float(x)) / math.sqrt(float(eps))
    below, above = math.floor(thr), math.ceil(thr)
    assert sign_with_ln(Fraction(below**2) * eps, Fraction(0), -16 * rho * rho, x) < 0
    assert sign_with_ln(Fraction(above**2) * eps, Fraction(0), -16 * rho * rho, x) > 0


def test_le_ge_with_ln():
    assert le_with_ln(Fraction(69, 100), Fraction(1), Fraction(2))
    assert not le_with_ln(Fraction(70, 100), Fraction(1), Fraction(2))
    assert ge_with_ln(Fraction(70, 100), Fraction(1), Fraction(2))


def test_floor_times_ln():
    assert floor_times_ln(Fraction(1), Fraction(2)) == 0
    assert floor_times_ln(Fraction(10), Fraction(2)) == 6  # 6.93...
    assert floor_times_ln(Fraction(100), Fraction(12)) == 248  # 248.49...
    # exercise the correction loops on a boundary-ish value
    coef = Fraction(10**15)
    got = floor_times_ln(coef, Fraction(2))
    assert got == math.floor(float(coef) * math.log(2))
