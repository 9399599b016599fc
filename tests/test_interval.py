import contextlib
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import opnkit.interval as interval
from opnkit.bounds import bounds_report
from opnkit.interval import (
    Dyadic,
    Interval,
    _round_mant,
    digit_string,
    div_dir,
    nth_root_enclosure,
    pow_dir,
    to_decimal,
)


def test_dyadic_normalization():
    assert Dyadic(8, 0) == Dyadic(1, 3)
    assert Dyadic(0, 17) == Dyadic(0, 0)
    assert Dyadic(12, -2) == Dyadic(3, 0)


def test_dyadic_arithmetic_exact():
    a, b = Dyadic(3, -1), Dyadic(5, -2)  # 1.5, 1.25
    assert (a + b).as_fraction() == Fraction(11, 4)
    assert (a - b).as_fraction() == Fraction(1, 4)
    assert (a * b).as_fraction() == Fraction(15, 8)
    assert (a * 4).as_fraction() == 6
    assert (-a).as_fraction() == Fraction(-3, 2)
    assert (a * Dyadic(1, -1)).as_fraction() == Fraction(3, 4)


def test_dyadic_ordering():
    # `<` is `>` reflected: Dyadic defines only `>`, which Interval's order check uses
    assert Dyadic(1, 0) < Dyadic(3, -1) < Dyadic(2, 0)
    assert not Dyadic(7, -3) > Dyadic(7, -3)
    assert Dyadic(1, 10) > 1000
    assert Dyadic(3, -1).cmp_fraction(Fraction(3, 2)) == 0


@given(st.integers(-(2**80), 2**80), st.integers(-50, 50), st.integers(4, 64))
def test_directed_rounding_brackets(mant, exp, bits):
    d = Dyadic(mant, exp)
    down = Dyadic(*_round_mant(mant, exp, bits, up=False))
    up = Dyadic(*_round_mant(mant, exp, bits, up=True))
    assert down.as_fraction() <= d.as_fraction() <= up.as_fraction()
    assert abs(down.mant) < 1 << bits
    assert abs(up.mant) <= 1 << bits  # carry can land exactly on a power of two


@given(
    st.integers(1, 2**60),
    st.integers(1, 2**60),
    st.integers(8, 96),
)
def test_div_dir_brackets(a, b, bits):
    x, y = Dyadic(a), Dyadic(b)
    exact = Fraction(a, b)
    assert div_dir(x, y, bits, up=False).as_fraction() <= exact
    assert div_dir(x, y, bits, up=True).as_fraction() >= exact
    # relative error within 2 ulps
    lo = div_dir(x, y, bits, up=False).as_fraction()
    assert exact - lo <= exact * Fraction(1, 2 ** (bits - 2))


@given(st.integers(1, 2**40), st.integers(-20, 0), st.integers(0, 12), st.integers(16, 64))
def test_pow_dir_brackets(mant, exp, n, bits):
    d = Dyadic(mant, exp)
    exact = d.as_fraction() ** n
    assert pow_dir(d, n, bits, up=False).as_fraction() <= exact
    assert pow_dir(d, n, bits, up=True).as_fraction() >= exact


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(Dyadic(2), Dyadic(1), 64)
    with pytest.raises(ValueError):
        Interval(Dyadic(1), Dyadic(2), 0)
    iv = Interval(Dyadic(1), Dyadic(2), 64)
    assert iv.hi.as_fraction() - iv.lo.as_fraction() == 1
    assert (iv.lo.as_fraction() + iv.hi.as_fraction()) / 2 == Fraction(3, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 30), st.sampled_from([32, 64, 128]))
def test_root_enclosure_contains_root(t, k, bits):
    iv = nth_root_enclosure(t, k, bits)
    # exact certificate: lo**k <= t <= hi**k as rationals
    assert iv.lo.as_fraction() ** k <= t
    assert iv.hi.as_fraction() ** k >= t
    assert iv.lo > Dyadic(0)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(
        min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**9
    ),
    st.integers(1, 20),
)
def test_root_enclosure_fractional_input(t, k):
    iv = nth_root_enclosure(t, k, 64)
    assert iv.lo.as_fraction() ** k <= t <= iv.hi.as_fraction() ** k


def test_root_enclosure_width_contract():
    for r in (2, 9, 97, 4096):
        iv = nth_root_enclosure(2, r, 128)
        assert iv.hi.as_fraction() - iv.lo.as_fraction() <= Fraction(1, 2**126)


def test_root_enclosure_validation():
    with pytest.raises(ValueError):
        nth_root_enclosure(0, 3, 64)
    with pytest.raises(ValueError):
        nth_root_enclosure(2, 0, 64)


def test_to_decimal_directed():
    d = Dyadic(1, -1)  # 0.5
    assert to_decimal(d, 3, up=False) == "5.00e-1"
    third_lo = div_dir(Dyadic(1), Dyadic(3), 80, up=False)
    s_lo = to_decimal(third_lo, 10, up=False)
    s_hi = to_decimal(third_lo, 10, up=True)
    assert s_lo == "3.333333333e-1"
    assert s_hi == "3.333333334e-1"
    assert to_decimal(Dyadic(0), 5, up=True) == "0"
    assert to_decimal(Dyadic(-1, -1), 3, up=True) == "-5.00e-1"


def test_to_decimal_carry():
    # 0.9999... rounded up to 2 digits must carry into the next decade
    d = div_dir(Dyadic(9999), Dyadic(10000), 60, up=False)
    assert to_decimal(d, 2, up=True) == "1.0e0"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2**70),
    st.integers(-80, 80),
    st.integers(1, 25),
)
def test_to_decimal_brackets_value(mant, exp, digits):
    d = Dyadic(mant, exp)
    x = d.as_fraction()
    lo = to_decimal(d, digits, up=False)
    hi = to_decimal(d, digits, up=True)
    def parse(s):
        m, e = s.split("e")
        return Fraction(m) * Fraction(10) ** int(e)
    assert parse(lo) <= x <= parse(hi)


# --- the renderer against the exact one it replaced ------------------------------


def exact_decimal_exponent(x):
    """floor(log10(x)) for a Fraction x > 0, from exact powers of ten."""
    num, den = x.numerator, x.denominator
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while 10**max(e + 1, 0) * den <= num * 10**max(-(e + 1), 0):
        e += 1
    while 10**max(e, 0) * den > num * 10**max(-e, 0):
        e -= 1
    return e


def exact_to_decimal(d, digits, up):
    """The rendering through the exact rational and full powers of ten."""
    if d.mant == 0:
        return "0"
    if d.mant < 0:
        return "-" + exact_to_decimal(-d, digits, not up)
    x = d.as_fraction()
    e10 = exact_decimal_exponent(x)
    shift = digits - 1 - e10
    num, den = x.numerator, x.denominator
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    q, rest = divmod(num, den)
    if up and rest:
        q += 1
    if q >= 10**digits:
        q //= 10
        e10 += 1
    s = digit_string(q, digits)
    return f"{s}e{e10}" if digits == 1 else f"{s[0]}.{s[1:]}e{e10}"


def assert_renders_like_exact(d, digits):
    for up in (False, True):
        assert to_decimal(d, digits, up) == exact_to_decimal(d, digits, up), (d, digits, up)


@settings(max_examples=60)
@given(st.integers(1, 20000), st.integers(1, 200), st.sampled_from([None, 64, 256]))
@example(r=1, digits=1, bits=None)
@example(r=20000, digits=1, bits=None)
@example(r=20000, digits=200, bits=64)
@example(r=7, digits=200, bits=None)
def test_to_decimal_matches_exact_on_bound_endpoints(r, digits, bits):
    # the table's own precision (as `opnkit bounds --digits` asks), or a fixed one
    report = bounds_report(r, bits or math.ceil(digits * math.log2(10)) + 8)
    for iv in (report.radical_lb, report.prime_sum_lb):
        assert_renders_like_exact(iv.lo, digits)
        assert_renders_like_exact(iv.hi, digits)


@settings(max_examples=300)
@given(
    st.integers(1, 2**2000).flatmap(lambda m: st.sampled_from([m, -m])),
    st.integers(-600, 600),
    st.integers(1, 60),
)
def test_to_decimal_matches_exact_on_random_dyadics(mant, exp, digits):
    assert_renders_like_exact(Dyadic(mant, exp), digits)


def test_to_decimal_edge_cases_match_exact():
    # short decimals, whose scaled value is an integer, near 1 and far from it
    shorts = [Dyadic(1), Dyadic(5, -3), Dyadic(125, -3), Dyadic(-5, -3), Dyadic(1, -60)]
    shorts += [Dyadic(10**k) for k in (1, 2, 7, 30, 300, 5000)]
    shorts += [Dyadic(3 * 5**k, k) for k in (40, 700)]  # 3 * 10**k
    shorts += [Dyadic(3 * 5**k + 2, k) for k in (40, 700)]  # 5**k does not divide it
    for d in shorts:
        for digits in (1, 2, 3, 20, 60):
            assert_renders_like_exact(d, digits)
    # 10**k - 1 rounded up at fewer than k digits carries into the next decade
    for k in (1, 2, 5, 30, 300, 5000):
        for digits in {1, 2, k}:
            assert_renders_like_exact(Dyadic(10**k - 1), digits)
    assert to_decimal(Dyadic(10**5000 - 1), 1, up=True) == "1e5000"
    assert to_decimal(Dyadic(10**5000 - 1), 1, up=False) == "9e4999"
    assert to_decimal(Dyadic(10**5000 - 1), 5000, up=True) == "9." + "9" * 4999 + "e4999"
    # far from 1, with the scaled value within 2**-m of an integer (1, or 10
    # from below): the first bracket straddles it and must be refined
    for k in (300, 5000):
        for m in (80, 200, 1000):
            for sign in (1, -1):
                assert_renders_like_exact(Dyadic(10**k * 2**m + sign * 10**k // 3, -m), 1)
                assert_renders_like_exact(Dyadic(10**k * 2**m + sign, -m), 2)
    assert to_decimal(Dyadic(0), 1, up=False) == "0"
    assert to_decimal(Dyadic(1), 1, up=True) == "1e0"
    assert to_decimal(Dyadic(5, -3), 1, up=True) == "7e-1"
    assert to_decimal(Dyadic(125, -3), 3, up=False) == "1.56e1"
    with pytest.raises(ValueError):
        to_decimal(Dyadic(1), 0, up=False)


@contextlib.contextmanager
def int_str_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_to_decimal_beyond_str_digit_limit():
    # the same strings as rendering through str() with the limit lifted
    rng = random.Random(4300)
    values = [Dyadic(10**4999 + 1), Dyadic(10**6000 - 1), Dyadic(1, -20000)]
    values += [Dyadic(rng.getrandbits(30000) | 1, rng.randint(-40000, 0)) for _ in range(4)]
    cases = [(d, digits, up) for d in values for digits in (639, 640, 641, 4300, 4301, 5000, 9001)
             for up in (False, True)]
    got = {}
    for limit in (640, 4300):
        with int_str_limit(limit):
            got[limit] = [to_decimal(d, digits, up) for d, digits, up in cases]
    with int_str_limit(0):
        want = [to_decimal(d, digits, up) for d, digits, up in cases]
    assert got[640] == want
    assert got[4300] == want
    exact = "1." + "0" * 4998 + "1e4999"  # 10**4999 + 1 has 5000 digits
    assert want[cases.index((values[0], 5000, False))] == exact
    assert want[cases.index((values[0], 5000, True))] == exact
    assert want[cases.index((values[0], 4301, True))] == "1." + "0" * 4299 + "1e4999"


def test_digit_string_matches_str():
    # width 0 and a wide zero padding, around the limit and far past it
    rng = random.Random(640)
    values = [10**k + j for k in (1, 639, 640, 641, 2000, 9000) for j in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randint(1, 40000)) for _ in range(100)]
    with int_str_limit(640):
        got = [(digit_string(x), digit_string(x, 9100)) for x in values]
    with int_str_limit(0):
        assert got == [(str(x), str(x).zfill(9100)) for x in values]


# --- the certified root kernel ------------------------------------------------------


def mul_dir(a, b, bits, up):
    return Dyadic(*_round_mant(a.mant * b.mant, a.exp + b.exp, bits, up))


def pow_dir_per_step(a, n, bits, up):
    """Reference powering: a normalised Dyadic after every rounded step."""
    result, base = Dyadic(1), a
    while n:
        if n & 1:
            result = mul_dir(result, base, bits, up)
        n >>= 1
        if n:
            base = mul_dir(base, base, bits, up)
    return result


@settings(max_examples=300)
@given(
    st.integers(0, 2**200),
    st.integers(-300, 300),
    st.integers(0, 3000),
    st.integers(1, 300),
    st.booleans(),
)
def test_pow_dir_matches_per_step_reference(mant, exp, n, bits, up):
    d = Dyadic(mant, exp)
    assert pow_dir(d, n, bits, up) == pow_dir_per_step(d, n, bits, up)


@settings(max_examples=500)
@given(
    st.integers(-(2**300), 2**300),
    st.integers(-400, 400),
    st.one_of(st.integers(-(2**400), 2**400), st.fractions()),
)
def test_cmp_fraction_matches_fraction_order(mant, exp, x):
    d = Dyadic(mant, exp)
    v = d.as_fraction()
    assert d.cmp_fraction(Fraction(x)) == (v > x) - (v < x)
    if isinstance(x, int):
        assert d.cmp_fraction(x) == (v > x) - (v < x)


def root_inputs():
    rng = random.Random(20000)
    ks = {2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 255, 256, 257,
          1000, 1023, 1024, 1025, 4095, 4096, 4097, 9999, 16383, 16384, 16385, 20000}
    ks |= {rng.randint(2, 20000) for _ in range(12)}
    ts = [Fraction(2)]
    ts += [Fraction(rng.randint(1, 10 ** rng.randint(1, 50)), rng.randint(1, 10 ** rng.randint(1, 50)))
           for _ in range(3)]
    return sorted(ks), ts


@pytest.mark.parametrize("bits", [1, 8, 64, 128, 1000, 16384])
def test_first_newton_candidate_certifies(monkeypatch, bits):
    # the defensive `work *= 2` retry is never needed: one Newton call each
    calls = []
    newton = interval._root_newton

    def counting(t, k, work):
        calls.append((t, k, work))
        return newton(t, k, work)

    monkeypatch.setattr(interval, "_root_newton", counting)
    ks, ts = root_inputs()
    if bits == 16384:
        ts = ts[:2]
    for k in ks:
        for t in ts:
            calls.clear()
            iv = nth_root_enclosure(t, k, bits)
            assert len(calls) == 1, (t, k, bits)
            assert iv.lo.as_fraction() > 0


def test_newton_schedule_ends_at_full_precision():
    for k in (2, 9, 1000, 20000, 2**40):
        for bits in (1, 17, 64, 65, 80, 128, 1000, 16400):
            levels = interval._newton_precisions(k, bits)
            assert levels[-1] == bits
            assert levels == sorted(set(levels))
            guard = k.bit_length() + 8
            for lower, upper in zip(levels, levels[1:]):
                assert lower == upper // 2 + guard


def mp_root(t, k, prec):
    with mpmath.workprec(prec):
        x = mpmath.root(mpmath.mpf(t.numerator) / t.denominator, k)
        sign, man, exp, _ = x._mpf_
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("bits", [1, 8, 64, 128, 1000, 4096])
def test_root_enclosure_against_mpmath(bits):
    # an independent root at bits + 64 lies inside, and for roots in [1, 2)
    # the width keeps the documented 2**-(bits+2)
    rng = random.Random(bits)
    cases = [(Fraction(2), k) for k in (1, 2, 3, 9, 97, 1000, 4096, 20000)]
    cases += [(Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30)), rng.randint(2, 5000))
              for _ in range(6)]
    near_one = [(Fraction(rng.randint(10**20 + 1, 2 * 10**20 - 1), 10**20), rng.randint(2, 5000))
                for _ in range(6)]
    # k = 1 takes the general Newton-then-prove path too
    near_one += [(Fraction(rng.randint(10**20 + 1, 2 * 10**20 - 1), 10**20), 1) for _ in range(2)]
    for t, k in cases + near_one:
        iv = nth_root_enclosure(t, k, bits)
        root = mp_root(t, k, bits + 64)
        assert iv.lo.as_fraction() <= root <= iv.hi.as_fraction(), (t, k)
        if 1 < t < 2**k:
            assert iv.hi.as_fraction() - iv.lo.as_fraction() <= Fraction(1, 2 ** (bits + 2)), (t, k)

