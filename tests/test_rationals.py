import math
import random
from fractions import Fraction

import pytest

from container_bench import rationals
from container_bench.rationals import (
    RationalParseError,
    ceil_frac,
    floor_frac,
    floor_times_ln,
    format_rational,
    le_with_ln,
    least_int,
    ln_interval,
    parse_rational,
    sign_with_ln,
)

from conftest import stepped_floor_times_ln


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
    assert sign_with_ln((Fraction(0), Fraction(0), Fraction(0)), Fraction(5)) == 0
    assert sign_with_ln((Fraction(-3), Fraction(0), Fraction(0)), Fraction(5)) == -1
    assert sign_with_ln((Fraction(2), Fraction(7), Fraction(0)), Fraction(1)) == 1


def test_sign_with_ln_near_boundary():
    # ln(2) = 0.693147...: compare against tight rational approximations of
    # ln 2 from below and above; the guard band must escalate and still decide.
    near_below = Fraction(693147180559945308, 10**18)
    near_above = Fraction(693147180559945310, 10**18)
    assert sign_with_ln((-near_below, Fraction(1), Fraction(0)), Fraction(2)) == 1
    assert sign_with_ln((-near_above, Fraction(1), Fraction(0)), Fraction(2)) == -1


def test_quadratic_sign():
    # t^2 eps - 16 rho^2 ln(x)^2 at the bullet boundary
    rho, eps = Fraction(1, 2), Fraction(1, 16)
    x = 2 * rho / eps
    thr = 4 * float(rho) * math.log(float(x)) / math.sqrt(float(eps))
    below, above = math.floor(thr), math.ceil(thr)
    assert sign_with_ln((Fraction(below**2) * eps, Fraction(0), -16 * rho * rho), x) < 0
    assert sign_with_ln((Fraction(above**2) * eps, Fraction(0), -16 * rho * rho), x) > 0


def test_le_ge_with_ln():
    assert le_with_ln(Fraction(69, 100), Fraction(1), Fraction(2))
    assert not le_with_ln(Fraction(70, 100), Fraction(1), Fraction(2))
    assert sign_with_ln((Fraction(70, 100), Fraction(-1)), Fraction(2)) > 0


def test_floor_times_ln():
    assert floor_times_ln(Fraction(1), Fraction(2)) == 0
    assert floor_times_ln(Fraction(10), Fraction(2)) == 6  # 6.93...
    assert floor_times_ln(Fraction(100), Fraction(12)) == 248  # 248.49...
    # exercise the correction loops on a boundary-ish value
    coef = Fraction(10**15)
    got = floor_times_ln(coef, Fraction(2))
    assert got == math.floor(float(coef) * math.log(2))


def _ln_interval_counter(monkeypatch) -> list:
    """Count the escalations to rational series bounds."""
    calls = []
    original = rationals.ln_interval

    def counted(x, terms=24):
        calls.append(terms)
        return original(x, terms)

    monkeypatch.setattr(rationals, "ln_interval", counted)
    return calls


@pytest.mark.parametrize("shape", ["cubic", "quartic"])
def test_sign_with_ln_high_degree_near_a_root(shape, monkeypatch):
    # The root a of each polynomial lies within 1e-18 of ln(2), below or
    # above it, so the sign is that of ln(2) - a and only the series decide.
    near_below = Fraction(693147180559945308, 10**18)
    near_above = Fraction(693147180559945310, 10**18)
    calls = _ln_interval_counter(monkeypatch)
    for a, want in ((near_below, 1), (near_above, -1)):
        if shape == "cubic":  # (L - a)^3
            coeffs = (-a**3, 3 * a * a, -3 * a, Fraction(1))
        else:  # (L - a)(L^3 + 1)
            coeffs = (-a, Fraction(1), Fraction(0), -a, Fraction(1))
        assert sign_with_ln(coeffs, Fraction(2)) == want
        assert sign_with_ln(tuple(-c for c in coeffs), Fraction(2)) == -want
    assert len(calls) >= 4


def test_sign_with_ln_beyond_the_float_range(monkeypatch):
    # ln(10^400) = 921.03...; neither x nor 1/x is a finite float.
    big, tiny = Fraction(10**400), Fraction(1, 10**400)
    calls = _ln_interval_counter(monkeypatch)
    assert sign_with_ln((Fraction(-921), Fraction(1)), big) == 1
    assert sign_with_ln((Fraction(-922), Fraction(1)), big) == -1
    assert sign_with_ln((Fraction(921), Fraction(1)), tiny) == -1
    assert sign_with_ln((Fraction(922), Fraction(1)), tiny) == 1
    assert sign_with_ln((Fraction(-921), Fraction(0), Fraction(0), Fraction(1, 921**2)),
                        big) == 1
    assert calls == []  # decided in floats, through log(p) - log(q)
    # A coefficient, or a term, too large for a float goes to the series.
    assert sign_with_ln((Fraction(10**400), Fraction(-1)), Fraction(2)) == 1
    assert sign_with_ln((Fraction(-10**400), Fraction(0), Fraction(1)), Fraction(2)) == -1
    assert sign_with_ln((Fraction(-1), Fraction(0), Fraction(10**306)), big) == 1
    assert len(calls) == 3


def test_least_int_finds_the_first_true_point_in_few_probes():
    for lo, first, hi in ((0, 0, None), (0, 1, None), (3, 3, None), (0, 1000, None),
                          (5, 10**30, None), (-7, -2, 9), (0, 7, 7), (0, 50, 7),
                          (2, 4, 4), (2, 2, 2)):
        probes = []

        def holds(t):
            probes.append(t)
            return t >= first

        got = least_int(holds, lo, hi)
        assert got == (first if hi is None else min(first, hi))
        assert hi not in probes  # hi is taken as true, never asked
        assert all(lo <= t for t in probes)
        assert len(probes) <= 2 * max(got - lo, 1).bit_length() + 2


def test_floor_times_ln_matches_the_stepped_search():
    rng = random.Random(20240611)
    for _ in range(1200):
        coef = Fraction(rng.randint(1, 10**rng.randint(1, 9)), rng.randint(1, 1000))
        den = rng.randint(1, 1000)
        x = Fraction(den + rng.randint(1, 10**rng.randint(1, 6)), den)
        assert floor_times_ln(coef, x) == stepped_floor_times_ln(coef, x), (coef, x)


def test_floor_times_ln_far_from_a_float_estimate():
    # At coef = 2e20 a float estimate is ~10^6 units off; the bracketed
    # search still takes O(log t) probes.
    coef, x = Fraction(2 * 10**20), Fraction(10**20)
    lo, hi = ln_interval(x, 64)
    want = math.floor(coef * lo)
    assert want == math.floor(coef * hi)
    assert floor_times_ln(coef, x) == want
