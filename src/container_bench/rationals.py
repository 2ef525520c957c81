"""Exact rational parsing and guarded comparisons against logarithmic bounds.

Every threshold in this package is an exact rational.  The only irrational
quantity that ever enters a comparison is ln(x) for a rational x > 0 (and its
square, via thresholds of the form t*sqrt(eps) >= c*ln(x), which are squared
into rational-coefficient polynomials in ln(x) first).

Comparison scheme: evaluate in double precision; if the result lands inside a
relative guard band of 1e-9 the comparison is redone with rational interval
bounds on ln(x) obtained from a truncated series, with the truncation depth
doubled until the sign is unambiguous.  Bound checks therefore never flip on
float noise.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class RationalParseError(ValueError):
    """A CLI-facing rational was not given as an exact p/q string."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as 'p/q' (or a bare integer 'p')."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise RationalParseError(
            f"expected an exact rational written as p/q, got {text!r}"
        )
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise RationalParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def ceil_frac(value, den: int = 1) -> int:
    """ceil(value / den) for an int or Fraction value and an int den > 0."""
    return -((-value.numerator) // (value.denominator * den))


def floor_frac(value: Fraction) -> int:
    return value.numerator // value.denominator


def _atanh_interval(z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rational bounds on atanh(z) for 0 <= z < 1 via the odd power series."""
    total = Fraction(0)
    power = z
    z2 = z * z
    for j in range(terms):
        total += power / (2 * j + 1)
        power *= z2
    # Remaining tail is positive and dominated by a geometric series.
    tail = power / ((2 * terms + 1) * (1 - z2))
    return total, total + tail


def _ln2_interval(terms: int) -> tuple[Fraction, Fraction]:
    lo, hi = _atanh_interval(Fraction(1, 3), terms)
    return 2 * lo, 2 * hi


def ln_interval(x: Fraction, terms: int = 24) -> tuple[Fraction, Fraction]:
    """Rigorous rational bounds lo <= ln(x) <= hi for rational x > 0.

    The argument is reduced by powers of two into [1, 2) so the series
    converges quickly regardless of the magnitude of x.
    """
    if x <= 0:
        raise ValueError("ln_interval requires x > 0")
    if x == 1:
        return Fraction(0), Fraction(0)
    if x < 1:
        lo, hi = ln_interval(1 / x, terms)
        return -hi, -lo
    m = 0
    y = x
    while y >= 2:
        y /= 2
        m += 1
    ln2_lo, ln2_hi = _ln2_interval(terms)
    z = (y - 1) / (y + 1)
    at_lo, at_hi = _atanh_interval(z, terms)
    return m * ln2_lo + 2 * at_lo, m * ln2_hi + 2 * at_hi


def _interval_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


_GUARD = 1e-9
_MAX_TERMS = 1 << 16


def sign_with_ln(c0: Fraction, c1: Fraction, c2: Fraction, x: Fraction) -> int:
    """Sign of c0 + c1*ln(x) + c2*ln(x)^2 with rational c0, c1, c2 and x > 0.

    Returns -1, 0 or +1.  An exact zero can only occur when the logarithmic
    terms vanish (x == 1 or c1 == c2 == 0); otherwise the value is irrational
    and the interval refinement below always separates it from zero.
    """
    if x <= 0:
        raise ValueError("sign_with_ln requires x > 0")
    if x == 1 or (c1 == 0 and c2 == 0):
        v = c0
        return (v > 0) - (v < 0)

    lx = math.log(x)
    t0, t1, t2 = float(c0), float(c1) * lx, float(c2) * lx * lx
    v = t0 + t1 + t2
    scale = max(1.0, abs(t0), abs(t1), abs(t2))
    if abs(v) > _GUARD * scale:
        return 1 if v > 0 else -1

    terms = 32
    while terms <= _MAX_TERMS:
        li = ln_interval(x, terms)
        l2 = _interval_mul(li, li)
        lo = c0 + min(c1 * li[0], c1 * li[1]) + min(c2 * l2[0], c2 * l2[1])
        hi = c0 + max(c1 * li[0], c1 * li[1]) + max(c2 * l2[0], c2 * l2[1])
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        terms *= 2
    raise ArithmeticError(
        f"could not separate c0 + c1*ln(x) + c2*ln(x)^2 from zero at x={x}"
    )


def le_with_ln(lhs: Fraction, coef: Fraction, x: Fraction) -> bool:
    """Decide lhs <= coef * ln(x) exactly (guarded)."""
    return sign_with_ln(lhs, -coef, Fraction(0), x) <= 0


def ge_with_ln(lhs: Fraction, coef: Fraction, x: Fraction) -> bool:
    """Decide lhs >= coef * ln(x) exactly (guarded)."""
    return sign_with_ln(lhs, -coef, Fraction(0), x) >= 0


def floor_times_ln(coef: Fraction, x: Fraction) -> int:
    """Exact floor(coef * ln(x)) for coef > 0, x > 1."""
    if coef <= 0 or x <= 1:
        raise ValueError("floor_times_ln requires coef > 0 and x > 1")
    est = math.floor(float(coef) * math.log(x))
    # Correct the float estimate: want largest integer t with t <= coef*ln(x).
    while not le_with_ln(Fraction(est), coef, x):
        est -= 1
    while le_with_ln(Fraction(est + 1), coef, x):
        est += 1
    return est
