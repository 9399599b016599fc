import json
import random
from fractions import Fraction
from math import prod

import mpmath
import pytest

from opnkit import bounds
from opnkit.bounds import (
    BOUNDS_R_MAX,
    BoundsReport,
    Ordering3,
    bounds_report,
    compare_rational_to_bound,
    decide,
    prime_sum_lower_bound,
    radical_lower_bound,
    refined_reciprocal_rhs,
)
from opnkit.interval import nth_root_enclosure


def contains_two_sqrt2_plus(iv, offset):
    """Exact check that iv contains offset + 2*sqrt(2), via squaring."""
    lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
    lo_ok = lo <= offset or ((lo - offset) / 2) ** 2 < 2
    hi_ok = hi > offset and ((hi - offset) / 2) ** 2 > 2
    return lo_ok and hi_ok


def mp_oracle(expr_fn, prec) -> Fraction:
    """Evaluate with mpmath at the given precision, converted exactly."""
    with mpmath.workprec(prec):
        x = expr_fn()
    sign, man, exp, _ = x._mpf_
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


def width(iv) -> Fraction:
    return iv.hi.as_fraction() - iv.lo.as_fraction()


def contains(iv, x) -> bool:
    return iv.lo.as_fraction() <= x <= iv.hi.as_fraction()


def root_of_two(r, bits):
    return nth_root_enclosure(2, r, bits)


# --- the lower bounds ----------------------------------------------------------


def test_r1_bounds_are_exactly_one():
    for fn in (radical_lower_bound, prime_sum_lower_bound):
        iv = fn(1, 64)
        assert iv.lo == iv.hi
        assert iv.lo.as_fraction() == 1


def test_radical_bound_r2_algebraic():
    # 1/(sqrt(2)-1)**2 == 3 + 2*sqrt(2)
    iv = radical_lower_bound(2, 64)
    assert contains_two_sqrt2_plus(iv, 3)
    assert width(iv) <= Fraction(1, 10**15)


def test_prime_sum_bound_r2_algebraic():
    # 2/(sqrt(2)-1) == 2 + 2*sqrt(2)
    iv = prime_sum_lower_bound(2, 64)
    assert contains_two_sqrt2_plus(iv, 2)
    assert width(iv) <= Fraction(1, 10**15)


def test_radical_bound_r9_against_mpmath():
    iv = radical_lower_bound(9, 128)
    oracle = mp_oracle(lambda: 1 / (mpmath.root(2, 9) - 1) ** 9, 2 * 128 + 64)
    mid = (iv.lo.as_fraction() + iv.hi.as_fraction()) / 2
    rel = abs(oracle - mid) / mid
    assert rel < Fraction(1, 10**30)
    assert iv.lo.as_fraction() < oracle < iv.hi.as_fraction()


def test_prime_sum_bound_r9_against_mpmath():
    iv = prime_sum_lower_bound(9, 128)
    oracle = mp_oracle(lambda: 9 / (mpmath.root(2, 9) - 1), 2 * 128 + 64)
    assert iv.lo.as_fraction() < oracle < iv.hi.as_fraction()


def test_n_lower_bound_key_is_radical_bound():
    for r in (2, 9):
        doc = bounds_report(r, 96).to_json_dict(digits=30)
        assert doc["n_lower_bound"] == doc["radical_lower_bound"]
        lo, hi = radical_lower_bound(r, 96).to_decimal_pair(30)
        assert doc["n_lower_bound"] == {"lo": lo, "hi": hi}


def test_prime_sum_vs_radical_consistency():
    # r / (2**(1/r)-1) equals r * (radical bound)**(1/r): enclosures must overlap
    from opnkit.interval import nth_root_enclosure

    for r in (2, 5, 9):
        beta = prime_sum_lower_bound(r, 96)
        alpha = radical_lower_bound(r, 96)
        lo_root = nth_root_enclosure(alpha.lo.as_fraction(), r, 96)
        hi_root = nth_root_enclosure(alpha.hi.as_fraction(), r, 96)
        scaled_lo = lo_root.lo.as_fraction() * r
        scaled_hi = hi_root.hi.as_fraction() * r
        assert scaled_lo <= beta.hi.as_fraction()
        assert beta.lo.as_fraction() <= scaled_hi


def test_monotone_refinement():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(2, 10**4)
        p = rng.choice([64, 128, 256])
        fn = rng.choice([radical_lower_bound, prime_sum_lower_bound, root_of_two])
        coarse = fn(r, p)
        fine = fn(r, 2 * p)
        w = width(coarse)
        assert width(fine) <= w / 2  # at least geometric shrink
        mid = (fine.lo.as_fraction() + fine.hi.as_fraction()) / 2
        assert mid >= coarse.lo.as_fraction() - w
        assert mid <= coarse.hi.as_fraction() + w
        # both enclose the same real, so they must overlap
        assert contains(coarse, fine.lo.as_fraction()) or contains(fine, coarse.lo.as_fraction())


def test_outward_rounding_true_value_inside():
    rng = random.Random(99)
    for _ in range(60):
        r = rng.randint(1, 10**4)
        p = rng.choice([64, 128, 256])
        fn = rng.choice([radical_lower_bound, prime_sum_lower_bound])
        wide = fn(r, p)
        narrow = fn(r, 4 * p)  # proxy for the true value
        assert contains(wide, (narrow.lo.as_fraction() + narrow.hi.as_fraction()) / 2)


# --- the symbolic upper bound ---------------------------------------------------


def test_nielsen_upper_bound():
    # the report keeps 2**(4**r) as its exponent
    assert bounds_report(1, 64).n_ub_log2 == 4
    assert bounds_report(2, 64).n_ub_log2 == 16
    assert bounds_report(9, 64).n_ub_log2 == 262144
    with pytest.raises(ValueError):
        bounds_report(0, 64)


# --- the refined reciprocal ceiling ---------------------------------------------


def test_refined_rhs_examples():
    assert refined_reciprocal_rhs(3, 7) == Fraction(321, 343)
    assert refined_reciprocal_rhs(2, 3) == Fraction(8, 9)
    for P in (2, 5, 101):
        assert refined_reciprocal_rhs(1, P) == 1


def test_refined_rhs_below_one():
    # the bracketed correction is strictly positive for r >= 2
    for r in range(2, 30):
        for P in (2, 3, 7, 97, 10**6 + 3):
            assert refined_reciprocal_rhs(r, P) < 1


def test_refined_rhs_validation():
    with pytest.raises(ValueError):
        refined_reciprocal_rhs(0, 7)
    with pytest.raises(ValueError):
        refined_reciprocal_rhs(3, 1)


# --- the comparison decision procedure -------------------------------------------


def test_compare_examples():
    assert compare_rational_to_bound(Fraction(15), "radical", 2) is Ordering3.ABOVE
    assert compare_rational_to_bound(Fraction(5), "radical", 2) is Ordering3.BELOW
    assert compare_rational_to_bound(Fraction(1), "radical", 1) is Ordering3.UNDECIDED
    assert compare_rational_to_bound(Fraction(3), "prime_sum", 1) is Ordering3.ABOVE
    assert compare_rational_to_bound(Fraction(1, 2), "radical", 1) is Ordering3.BELOW


def test_compare_terminates_near_bound():
    # a rational squeezed very close to 3 + 2*sqrt(2) still separates
    close = Fraction(5828427124746190097603377, 10**24)
    assert compare_rational_to_bound(close, "radical", 2) in (
        Ordering3.ABOVE,
        Ordering3.BELOW,
    )


def test_compare_validation():
    with pytest.raises(ValueError):
        compare_rational_to_bound(Fraction(1), "nope", 2)
    with pytest.raises(ValueError):
        compare_rational_to_bound(Fraction(1), "n", 2)  # the radical bound's old alias
    with pytest.raises(ValueError):
        compare_rational_to_bound(Fraction(-1), "radical", 2)
    with pytest.raises(ValueError, match="r must be >= 1"):
        compare_rational_to_bound(Fraction(1), "radical", 0)


def test_compare_low_cap_undecides(monkeypatch):
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 16)
    close = Fraction(5828427124746190097603377, 10**24)
    assert compare_rational_to_bound(close, "radical", 2) is Ordering3.UNDECIDED


# --- report --------------------------------------------------------------------


def test_bounds_report_structure():
    rep = bounds_report(9, 128)
    assert isinstance(rep, BoundsReport)
    assert rep.n_ub_log2 == 262144
    doc = rep.to_json_dict(digits=30)
    assert set(doc) == {
        "r",
        "precision_bits",
        "radical_lower_bound",
        "prime_sum_lower_bound",
        "n_lower_bound",
        "n_upper_bound",
    }
    assert doc["n_upper_bound"] == {"log2": 262144}
    assert doc["n_lower_bound"] == doc["radical_lower_bound"]
    # endpoint strings must themselves bracket outward
    lo = Fraction(doc["radical_lower_bound"]["lo"].replace("e", "E"))
    hi = Fraction(doc["radical_lower_bound"]["hi"].replace("e", "E"))
    assert lo <= rep.radical_lb.lo.as_fraction()
    assert hi >= rep.radical_lb.hi.as_fraction()
    json.dumps(doc)  # serializable


def test_bounds_report_matches_separate_bounds(monkeypatch):
    # one root of 2 serves both bounds, with the same enclosures as apart
    roots = []
    enclose = bounds.nth_root_enclosure

    def counting(t, k, bits):
        roots.append(k)
        return enclose(t, k, bits)

    rng = random.Random(11)
    cases = [(1, 64), (2, 1), (2, 64), (9, 128), (97, 200)]
    cases += [(rng.randint(2, 7000), rng.choice([16, 64, 128, 1000])) for _ in range(12)]
    for r, bits in cases:
        monkeypatch.setattr(bounds, "nth_root_enclosure", counting)
        roots.clear()
        rep = bounds_report(r, bits)
        assert roots == ([] if r == 1 else [r])
        monkeypatch.undo()
        assert rep.radical_lb == radical_lower_bound(r, bits)
        assert rep.prime_sum_lb == prime_sum_lower_bound(r, bits)


def test_bounds_report_r_ceiling(monkeypatch):
    # at the ceiling: both lower bounds, rendered, bracket mpmath's values
    doc = bounds_report(BOUNDS_R_MAX, 25).to_json_dict(5)
    assert doc["n_upper_bound"] == {"log2": 4**BOUNDS_R_MAX}
    with mpmath.workprec(200):
        d = mpmath.mpf(2) ** (mpmath.mpf(1) / BOUNDS_R_MAX) - 1
        for key, true in (("radical_lower_bound", 1 / d**BOUNDS_R_MAX), ("prime_sum_lower_bound", BOUNDS_R_MAX / d)):
            lo, hi = (mpmath.mpf(doc[key][end]) for end in ("lo", "hi"))
            assert lo <= true <= hi
            assert hi / lo < 1 + mpmath.mpf(10) ** -3
    # above it: refused before any root of 2 is enclosed
    monkeypatch.setattr(bounds, "nth_root_enclosure", lambda *args: pytest.fail("enclosure computed"))
    with pytest.raises(ValueError, match=f"r is at most {BOUNDS_R_MAX}, got {BOUNDS_R_MAX + 1}"):
        bounds_report(BOUNDS_R_MAX + 1, 25)


# --- the refinement loop ----------------------------------------------------------


def recording_sqrt2(calls):
    def enclose(bits):
        calls.append(bits)
        return root_of_two(2, bits)

    return enclose


# sqrt(2) truncated to 49 decimals: about 163 bits are needed to separate them
SQRT2_49 = Fraction(14142135623730950488016887242096980785696718753769, 10**49)


def test_decide_below_and_above(monkeypatch):
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 1024)
    for x, want in ((Fraction(1), Ordering3.BELOW), (Fraction(3, 2), Ordering3.ABOVE)):
        calls = []
        order, enclosure = decide(x, recording_sqrt2(calls))
        assert order is want
        assert calls == [64]
        assert enclosure.precision_bits == 64
        assert enclosure.lo.as_fraction() ** 2 < 2 < enclosure.hi.as_fraction() ** 2


def test_decide_refines_until_decided(monkeypatch):
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 1 << 12)
    calls = []
    order, enclosure = decide(SQRT2_49, recording_sqrt2(calls))
    assert order is Ordering3.BELOW  # the truncated decimal lies below sqrt(2)
    assert calls == [64, 128, 256]
    assert enclosure.precision_bits == calls[-1]
    assert enclosure.lo.cmp_fraction(SQRT2_49) > 0


def test_decide_undecided_at_cap(monkeypatch):
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 100)
    calls = []
    order, enclosure = decide(SQRT2_49, recording_sqrt2(calls))
    assert order is Ordering3.UNDECIDED
    assert calls == [64, 100]
    assert enclosure.precision_bits == 100
    assert contains(enclosure, SQRT2_49)


def test_decide_start_above_cap_clamps(monkeypatch):
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 16)
    calls = []
    order, enclosure = decide(SQRT2_49, recording_sqrt2(calls))
    assert order is Ordering3.UNDECIDED
    assert calls == [16]
    assert enclosure.precision_bits == 16


# --- the call-scoped store of roots of two -------------------------------------------


def spy_roots(monkeypatch):
    """Record (k, bits) of each root `bounds` encloses."""
    calls = []
    enclose = bounds.nth_root_enclosure

    def spy(t, k, bits, **warm):
        calls.append((k, bits))
        return enclose(t, k, bits, **warm)

    monkeypatch.setattr(bounds, "nth_root_enclosure", spy)
    return calls


def test_bounds_suite_encloses_each_root_once(monkeypatch):
    from opnkit.checks import run_verify_suite

    calls = spy_roots(monkeypatch)
    first = run_verify_suite("bounds", trials=150, seed=20100806)
    assert len(calls) == len(set(calls)) == 11
    # the store is dropped when the call returns: a second call encloses anew
    calls.clear()
    assert run_verify_suite("bounds", trials=150, seed=20100806) == first
    assert len(calls) == 11
    assert bounds._roots is None


def test_audit_encloses_one_root_per_level(monkeypatch):
    # starting at 1 bit, with no guard bits, both bound decisions climb
    # several levels; they share one enclosure of 2**(1/r) - 1 per level,
    # and the deeper one sets how many levels there are
    from opnkit.arith import parse_factorization
    from opnkit.constraints import audit

    monkeypatch.setattr(bounds, "DEFAULT_START_BITS", 1)
    monkeypatch.setattr(bounds, "_work_bits", lambda r, bits: bits)
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29)
    r = len(primes)
    deepest = max(
        decide(Fraction(x), lambda bits, f=f: f(r, bits))[1].precision_bits
        for x, f in ((prod(primes), radical_lower_bound), (sum(primes), prime_sum_lower_bound))
    )
    levels = [1 << i for i in range(deepest.bit_length())]
    assert len(levels) >= 3
    calls = spy_roots(monkeypatch)
    audit(parse_factorization("*".join(map(str, primes))))
    assert calls == [(r, bits) for bits in levels]
    assert bounds._roots is None


def test_store_is_dropped_on_error():
    with pytest.raises(ValueError):
        compare_rational_to_bound(Fraction(5), "radical", 0)
    assert bounds._roots is None


@pytest.mark.parametrize("bits", [128, 256, 1024, 4096, 16384])
def test_warm_started_root_against_mpmath(monkeypatch, bits):
    # a root refined from the enclosure at half the bits continues Newton
    # from there, never from the float seed, and keeps the proof's guarantee
    from opnkit import interval

    rs = (2, 3, 9, 97, 1000, 10**4)
    previous = {r: nth_root_enclosure(2, r, bits // 2) for r in rs}
    monkeypatch.setattr(interval, "_root_newton", lambda *args: pytest.fail("started from the float seed"))
    for r in rs:
        iv = nth_root_enclosure(2, r, bits, _previous=previous[r])
        root = mp_oracle(lambda: mpmath.root(2, r), bits + 64)
        assert contains(iv, root), (r, bits)
        assert width(iv) <= Fraction(1, 2 ** (bits + 2)), (r, bits)


def test_warm_decision_matches_cold():
    # near-tie decisions refine with the store; each settles at the level
    # where enclosures computed afresh, outside any call, settle it too
    rng = random.Random(25)
    for _ in range(8):
        r, k = rng.randint(2, 3000), rng.choice([300, 1000, 2000])
        f = rng.choice([radical_lower_bound, prime_sum_lower_bound])
        iv = f(r, k + 64)
        mid = (iv.lo.as_fraction() + iv.hi.as_fraction()) / 2
        for x in (mid * (1 - Fraction(1, 2**k)), mid * (1 + Fraction(1, 2**k))):
            order, enclosure = decide(x, lambda bits: f(r, bits))
            bits = enclosure.precision_bits
            assert bits > 64 and bounds._roots is None
            cold = f(r, bits)
            assert (cold.lo.cmp_fraction(x) > 0, cold.hi.cmp_fraction(x) < 0) == (
                order is Ordering3.BELOW,
                order is Ordering3.ABOVE,
            )
            assert contains(f(r, bits // 2), x)
