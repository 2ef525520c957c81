"""Exact rational parsing and guarded comparisons against logarithmic bounds.

Every threshold in this package is an exact rational.  The only irrational
quantity that ever enters a comparison is ln(x) for a rational x > 0, in a
polynomial of any degree in ln(x) with rational coefficients (a bound like
t*sqrt(eps) >= c*ln(x) is squared into one first).

sign_with_ln evaluates in double precision; if the result lands inside a
relative guard band of 1e-9, or a term lies beyond the float range, it redoes
the comparison with rational interval bounds on ln(x) from a truncated
series, doubling the depth until the sign is unambiguous.  Bound checks
therefore never flip on float noise.  least_int finds the least integer at
which such a comparison holds in O(log t) of them, with no float estimate.
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


def sign_with_ln(coeffs, x: Fraction) -> int:
    """Sign of sum(coeffs[i] * ln(x)^i) with rational coeffs and x > 0.

    Returns -1, 0 or +1.  An exact zero can only occur when the logarithmic
    terms vanish (x == 1 or coeffs[1:] all zero): ln(x) is transcendental for
    rational x != 1, so otherwise the value is nonzero and the interval
    refinement below always separates it from zero.
    """
    if x <= 0:
        raise ValueError("sign_with_ln requires x > 0")
    if x == 1 or not any(coeffs[1:]):
        return (coeffs[0] > 0) - (coeffs[0] < 0)

    try:
        lx = math.log(x)
    except (OverflowError, ValueError):  # x lies beyond the float range
        lx = math.log(x.numerator) - math.log(x.denominator)
    v, scale, power = 0.0, 1.0, 1.0
    try:
        for c in coeffs:  # a term past the float range makes scale inf: no float decides
            term = float(c) * power
            v, scale, power = v + term, max(scale, abs(term)), power * lx
    except OverflowError:  # a coefficient lies beyond the float range
        scale = math.inf
    if abs(v) > _GUARD * scale:
        return 1 if v > 0 else -1

    terms = 32
    while terms <= _MAX_TERMS:
        li = ln_interval(x, terms)
        lo = hi = Fraction(0)
        power = (Fraction(1), Fraction(1))
        for i, c in enumerate(coeffs):
            if i:
                power = _interval_mul(power, li)
            ends = (c * power[0], c * power[1])
            lo, hi = lo + min(ends), hi + max(ends)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        terms *= 2
    raise ArithmeticError(f"could not separate sum(coeffs[i] * ln(x)^i) from zero at x={x}")


def le_with_ln(lhs: Fraction, coef: Fraction, x: Fraction) -> bool:
    """Decide lhs <= coef * ln(x) exactly (guarded)."""
    return sign_with_ln((lhs, -coef), x) <= 0


def least_int(holds, lo: int, hi: int | None = None) -> int:
    """Least t in [lo, hi] with holds(t), for holds false up to some t, true
    from it on; holds(hi) is taken as true, never asked (no hi: unbounded).
    The step from lo doubles until a probe holds, then the bracket is bisected.
    """
    top, step = lo, 1
    while (hi is None or top < hi) and not holds(top):
        lo, step = top + 1, step * 2
        top = lo + step - 1
    top = top if hi is None else min(top, hi)
    while lo < top:
        mid = (lo + top) // 2
        if holds(mid):
            top = mid
        else:
            lo = mid + 1
    return top


def floor_times_ln(coef: Fraction, x: Fraction) -> int:
    """Exact floor(coef * ln(x)) for coef > 0, x > 1."""
    if coef <= 0 or x <= 1:
        raise ValueError("floor_times_ln requires coef > 0 and x > 1")
    return least_int(lambda t: sign_with_ln((t, -coef), x) > 0, 0) - 1
