"""Dyadic values and outward-rounded interval arithmetic.

Everything here is integer arithmetic underneath: a `Dyadic` is
mant * 2**exp with an arbitrary-size mantissa, and every inexact
operation (division, root extraction, decimal rendering) takes an
explicit rounding direction.  Interval endpoints always round outward,
so a returned enclosure is a guarantee, not a best effort: the true
real value lies inside it by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


def _round_mant(mant: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed rounding of mant * 2**exp to at most `bits` mantissa bits.

    up=False rounds toward -inf, up=True toward +inf (Python's >> already
    floors, for negative mantissas too).
    """
    if mant == 0:
        return 0, 0
    excess = abs(mant).bit_length() - bits
    if excess <= 0:
        return mant, exp
    rest = mant & ((1 << excess) - 1)
    q = mant >> excess
    if up and rest:
        q += 1
    return q, exp + excess


@dataclass(frozen=True)
class Dyadic:
    """Exact binary rational mant * 2**exp; mantissa kept odd (or zero)."""

    mant: int
    exp: int = 0

    def __post_init__(self):
        m, e = self.mant, self.exp
        if m == 0:
            e = 0
        else:
            shift = (m & -m).bit_length() - 1
            m >>= shift
            e += shift
        object.__setattr__(self, "mant", m)
        object.__setattr__(self, "exp", e)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.mant << self.exp)
        return Fraction(self.mant, 1 << -self.exp)

    @property
    def msb(self) -> int:
        """Position of the most significant bit: 2**(msb-1) <= |v| < 2**msb."""
        if self.mant == 0:
            raise ValueError("msb of zero")
        return abs(self.mant).bit_length() + self.exp

    def _cmp(self, other: "Dyadic") -> int:
        e = min(self.exp, other.exp)
        a = self.mant << (self.exp - e)
        b = other.mant << (other.exp - e)
        return (a > b) - (a < b)

    @staticmethod
    def _coerce(other) -> "Dyadic":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return NotImplemented  # type: ignore[return-value]

    def __gt__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) > 0

    def cmp_fraction(self, x: Fraction) -> int:
        """Exact three-way comparison against any rational (or int).

        Cross-multiplies mant * 2**exp against num / den in integers, so no
        Fraction (and no gcd) is built.
        """
        a, b = self.mant * x.denominator, x.numerator
        if self.exp >= 0:
            a <<= self.exp
        else:
            b <<= -self.exp
        return (a > b) - (a < b)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mant, self.exp)

    def __add__(self, other) -> "Dyadic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = min(self.exp, other.exp)
        return Dyadic(
            (self.mant << (self.exp - e)) + (other.mant << (other.exp - e)), e
        )

    def __sub__(self, other) -> "Dyadic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Dyadic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.mant * other.mant, self.exp + other.exp)


ONE = Dyadic(1)


def div_dir(a: Dyadic, b: Dyadic, bits: int, up: bool) -> Dyadic:
    """a/b (b > 0) rounded in the given direction to `bits` mantissa bits."""
    if b.mant <= 0:
        raise ValueError("div_dir requires a positive divisor")
    shift = max(0, bits - abs(a.mant).bit_length() + b.mant.bit_length() + 2)
    num = a.mant << shift
    q = -((-num) // b.mant) if up else num // b.mant
    m, e = _round_mant(q, a.exp - b.exp - shift, bits, up)
    return Dyadic(m, e)


def pow_dir(a: Dyadic, n: int, bits: int, up: bool) -> Dyadic:
    """a**n (a >= 0, n >= 0) with every step rounded in the given direction."""
    if a.mant < 0:
        raise ValueError("pow_dir requires a nonnegative base")
    # plain (mant, exp) pairs, one Dyadic at the end: directed rounding to
    # `bits` significant bits depends only on the value, so the zero low
    # bits an unnormalised mantissa carries change nothing
    rm, re = 1, 0
    bm, be = a.mant, a.exp
    while n:
        if n & 1:
            rm, re = _round_mant(rm * bm, re + be, bits, up)
        n >>= 1
        if n:
            bm, be = _round_mant(bm * bm, be + be, bits, up)
    return Dyadic(rm, re)


def digit_string(x: int, width: int = 0) -> str:
    """The decimal digits of x >= 0, zero-padded to `width`, at any length.

    Below sys.get_int_max_str_digits() (4300 digits by default) this is
    str(x); str() refuses a longer x, so that one is split at a power of
    ten near the middle of its digits and its halves are rendered apart.
    (Pythons without the limit have no getter.)
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2**3.32 < 10, so x < 2**(3.32 * limit) has at most `limit` digits
    if limit == 0 or x.bit_length() <= 3.32 * limit:
        return str(x).zfill(width)
    # the estimate lies between the digit count of x and one more; it only
    # places the split, and the high half is padded to `width` alone
    low = max(width, int(x.bit_length() * math.log10(2)) + 1) // 2
    high, rest = divmod(x, 10**low)
    return digit_string(high, width - low) + digit_string(rest, low)


_TEN = Dyadic(10)
# 5**k of up to this many times the working precision is cheaper to build
# and divide exactly than the two directed powers of a bracket: measured
# from 130 to 13400 bits, the exact floor took 0.3-0.7 of the bracket's
# time up to 8 times, and 1.4-5 times as long at 16 times
_EXACT_POWER_RATIO = 8


def _exact_floor(mant: int, exp: int, s: int, bits: int) -> tuple[int, bool] | None:
    """(floor(y), whether y is an integer) for y = mant * 2**exp * 10**s,
    mant odd and > 0, computed in integers; None when y is not an integer
    and 10**|s| is large for the working precision `bits`.

    With k = |s|, y is mant * 5**k * 2**(exp + k) for s >= 0, an integer
    exactly when exp + k >= 0, and mant * 2**(exp - k) / 5**k for s < 0,
    an integer exactly when exp >= k and 5**k divides the odd mant.  A
    mant of at most 2k bits is below 4**k < 5**k, so it cannot be divided
    and 5**k is not built.  5**k is built when it is small (it has at
    most 7k//3 + 1 bits), or when y may be an integer: then 5**k is no
    larger than y (s >= 0), which is within a decade or so of 10**digits,
    or than mant (s < 0).
    """
    k = abs(s)
    if 7 * k // 3 >= _EXACT_POWER_RATIO * bits and not (
        exp + k >= 0 if s >= 0 else exp >= k and mant.bit_length() > 2 * k
    ):
        return None
    if s >= 0:  # mant * 5**k is odd, so a negative exp + k leaves a fraction
        num, e = mant * 5**k, exp + k
        return (num << e, True) if e >= 0 else (num >> -e, False)
    e = exp - k
    q, rest = divmod(mant << e, 5**k) if e >= 0 else divmod(mant, 5**k << -e)
    return q, rest == 0


def _floor(d: Dyadic) -> int:
    return d.mant << d.exp if d.exp >= 0 else d.mant >> -d.exp


def to_decimal(d: Dyadic, digits: int, up: bool) -> str:
    """Scientific-notation rendering with directed rounding.

    up=False never exceeds the true value, up=True never undershoots it,
    so rendering interval endpoints preserves the enclosure.

    The digits are q = floor (or ceil) of y = d * 10**s, s = digits-1-e10,
    where e10 = floor(log10 d) is the decade with 10**(digits-1) <= y <
    10**digits.  No large power of ten is built (Ziv's loop): y is
    bracketed by directed roundings of 10**|s| to `bits` bits, starting
    at about 3.33 * digits + 64, multiplied in for s >= 0 and divided out
    for s < 0, and both the decade and floor(y) are read off the integer
    floors of the bracket's ends.  Ends that floor alike fix floor(y); a
    top that floors below 10**(digits-1), or a bottom that floors at
    10**digits or above, moves e10 by one toward the true decade; anything
    else doubles `bits`.  When 10**|s| is small for `bits` (every render
    of a value near 1), or when y may be an integer (d is a short
    decimal), `_exact_floor` gives floor(y) in integers instead, a bracket
    of width zero.

    Termination: the float guess of e10 only starts the loop, and a move
    is made only when the bracket proves y outside the decade, so e10
    steps monotonically to the true decade, a finite distance away.  At a
    fixed s, each of the at most 2*log2(|s|) + 2 roundings behind a
    bracket end is off by less than 2**(1-bits) relatively, so doubling
    `bits` drives the bracket's width below the distance from y to the
    nearest integer, which is positive since an integer y is always
    handled exactly; then both ends floor alike.  In any case the
    doublings stop once 10**|s| is small for `bits`, where `_exact_floor`
    decides at once.  Rounding up into the next decade (q = 10**digits)
    carries: q //= 10, e10 += 1.  No float decides a digit, a decade or
    a rounding.
    """
    if digits < 1:
        raise ValueError("need at least one digit")
    if d.mant == 0:
        return "0"
    if d.mant < 0:
        return "-" + to_decimal(-d, digits, not up)
    low, high = 10 ** (digits - 1), 10**digits
    e10 = math.floor((_log2_float(d.mant) + d.exp) * math.log10(2))  # a guess only
    bits = digits * 10 // 3 + 64
    while True:
        s = digits - 1 - e10
        found = _exact_floor(d.mant, d.exp, s, bits)
        if found is not None:
            lo, exact = found
            hi = lo
        else:
            exact = False
            p_lo = pow_dir(_TEN, abs(s), bits, up=False)
            p_hi = pow_dir(_TEN, abs(s), bits, up=True)
            if s >= 0:
                lo, hi = _floor(d * p_lo), _floor(d * p_hi)
            else:
                lo = _floor(div_dir(d, p_hi, bits, up=False))
                hi = _floor(div_dir(d, p_lo, bits, up=True))
        if hi < low:  # y < 10**(digits-1)
            e10 -= 1
        elif lo >= high:  # y >= 10**digits
            e10 += 1
        elif lo == hi:  # floor(y), inside the decade
            break
        else:
            bits *= 2
    q = lo + 1 if up and not exact else lo
    if q == high:
        q //= 10
        e10 += 1
    text = digit_string(q, digits)
    if digits == 1:
        return f"{text}e{e10}"
    return f"{text[0]}.{text[1:]}e{e10}"


@dataclass(frozen=True)
class Interval:
    """Certified enclosure [lo, hi] with the precision it was computed at."""

    lo: Dyadic
    hi: Dyadic
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, v: int | Dyadic, precision_bits: int) -> "Interval":
        d = v if isinstance(v, Dyadic) else Dyadic(v)
        return cls(d, d, precision_bits)

    def to_decimal_pair(self, digits: int = 50) -> tuple[str, str]:
        return to_decimal(self.lo, digits, up=False), to_decimal(self.hi, digits, up=True)


def _log2_float(n: int) -> float:
    shift = max(0, n.bit_length() - 53)
    return math.log2(n >> shift) + shift


def _root_seed(t: Fraction, k: int) -> Dyadic:
    """Float-quality first approximation of t**(1/k), exponent-safe."""
    y = (_log2_float(t.numerator) - _log2_float(t.denominator)) / k
    e0 = math.floor(y)
    mant = int(2.0 ** (y - e0) * (1 << 52))
    return Dyadic(mant, e0 - 52)


def _div_fraction_dyadic(t: Fraction, b: Dyadic, bits: int, up: bool) -> Dyadic:
    # t / b with b > 0, directed
    num = Dyadic(t.numerator)
    q = div_dir(num, b, bits + t.denominator.bit_length() + 2, up)
    return div_dir(q, Dyadic(t.denominator), bits, up)


# the float seed is good to about 50 bits, so Newton starts at this precision
_NEWTON_BASE_BITS = 64


def _newton_precisions(k: int, bits: int) -> list[int]:
    """Ascending Newton precisions that end at `bits`.

    Going down from `bits`, each level is the one above halved plus a guard
    of k.bit_length() + 8 bits, for the factor of about k that the error of
    a k-th-root Newton step picks up.  The schedule stops at
    _NEWTON_BASE_BITS, or at three guards, below which halving would
    barely shrink the next level.
    """
    guard = k.bit_length() + 8
    levels = [bits]
    while levels[-1] > max(_NEWTON_BASE_BITS, 3 * guard):
        levels.append(levels[-1] // 2 + guard)
    return levels[::-1]


def _newton_step(t: Fraction, k: int, x: Dyadic, bits: int) -> Dyadic:
    # x' = ((k-1) x + t / x**(k-1)) / k, every operation at `bits` bits
    p = pow_dir(x, k - 1, bits, up=False)
    q = _div_fraction_dyadic(t, p, bits, up=False)
    return div_dir(x * (k - 1) + q, Dyadic(k), bits, up=False)


def _root_newton(t: Fraction, k: int, bits: int) -> Dyadic:
    """Uncertified Newton approximation of t**(1/k) at ~bits precision.

    Precision doubling: Newton converges quadratically, so a step taken
    from an iterate good to p bits delivers about 2p bits, and running it
    at more than that wastes work.  The iteration therefore climbs the
    schedule of `_newton_precisions`: at its lowest level it runs from the
    float seed until the step falls below the level's last few bits, then
    takes exactly one step at each higher level, the last at the full
    `bits` (that step always runs, however small `bits` is).  Nothing here
    is trusted: `nth_root_enclosure` proves its enclosure independently.
    """
    base = _newton_precisions(k, bits)[0]
    x = _root_seed(t, k)
    for _ in range(80):
        x_next = _newton_step(t, k, x, base)
        delta = x_next - x
        x = x_next
        if delta.mant == 0 or delta.msb <= x.msb - base + 4:
            break
    return _newton_climb(t, k, x, base, bits)


def _newton_climb(t: Fraction, k: int, x: Dyadic, good: int, bits: int) -> Dyadic:
    """Newton from an iterate x good to about `good` bits up to `bits`: one
    step at each level of `_newton_precisions(k, bits)` above `good`."""
    for level in _newton_precisions(k, bits):
        if level > good:
            x = _newton_step(t, k, x, level)
    return x


def nth_root_enclosure(t, k: int, precision_bits: int, *, _previous: Interval | None = None) -> Interval:
    """Certified enclosure of t**(1/k) for rational t > 0, k >= 1.

    The candidate comes from `_root_newton` at work = precision_bits + 16
    bits: Newton with precision doubling, each step at about twice the
    precision of the one before plus k.bit_length() + 8 guard bits, the
    last one at the full work precision.  The returned endpoints, the
    candidate widened by a few ulps, are then *proved* correct by
    directed-rounded powering at work + 8 bits (pow_up(lo) <= t forces
    lo <= t**(1/k), and symmetrically above).  So the proof does not depend
    on how accurate Newton was: a poor candidate costs a wider slack, or a
    retry at twice the work precision, never a wrong enclosure.  For
    values near 1 the width is at most 2**-(precision_bits+2).

    `_previous` is private to `opnkit.bounds`, which refines a root it
    enclosed earlier in the same call.  It is an enclosure this function
    returned for the same t and k at lower precision, so its midpoint is
    that call's candidate, good to its precision_bits + 16.  Newton then
    continues from there, one step per level of the schedule above that,
    not from the float seed (Brent & Zimmermann, *Modern Computer
    Arithmetic*, section 4.2).  The proof is the same either way.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("root of a nonpositive value")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    work = precision_bits + 16
    if _previous is None:
        cand = _root_newton(t, k, work)
    else:
        mid = _previous.lo + _previous.hi
        cand = _newton_climb(t, k, Dyadic(mid.mant, mid.exp - 1), _previous.precision_bits + 16, work)
    while True:
        ulp = Dyadic(1, cand.msb - work)
        slack = 2
        while slack <= 1 << 12:
            lo = cand - ulp * Dyadic(slack)
            hi = cand + ulp * Dyadic(slack)
            if (
                lo.mant > 0
                and pow_dir(lo, k, work + 8, up=True).cmp_fraction(t) <= 0
                and pow_dir(hi, k, work + 8, up=False).cmp_fraction(t) >= 0
            ):
                return Interval(lo, hi, precision_bits)
            slack *= 4
        work *= 2  # defensive; Newton is expected to land on the first pass
        cand = _root_newton(t, k, work)
