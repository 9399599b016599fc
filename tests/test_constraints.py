import contextlib
import json
import random
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnkit import bounds, constraints
from opnkit.arith import Factorization, parse_factorization
from opnkit.bounds import Ordering3, radical_lower_bound, refined_reciprocal_rhs
from opnkit.constraints import (
    ConstraintReport,
    Overall,
    Verdict,
    _compare_factored,
    _exceeds_ten_to_20,
    _fmt_int,
    audit,
    explain,
)
from opnkit.interval import Dyadic, Interval
from opnkit.primes import primes_up_to
from trial_division import trial_factor

ALL_IDS = [
    "parity",
    "euler_form",
    "steuerwald",
    "touchard",
    "min_distinct",
    "min_distinct_no3",
    "min_distinct_no3no5",
    "min_distinct_no357",
    "hare_omega",
    "largest_three",
    "perisastri_smallest",
    "kishore",
    "cohen_component",
    "brent_size",
    "nielsen_size",
    "radical_bound",
    "prime_sum_bound",
    "reciprocal_sum",
    "reciprocal_sum_refined",
    "perfect_exact",
]


def by_id(report: ConstraintReport) -> dict:
    return {v.id: v for v in report.verdicts}


def test_audit_2205():
    report = audit(parse_factorization("3^2*5*7^2"))
    v = by_id(report)
    assert v["euler_form"].verdict is Verdict.PASS
    assert v["touchard"].verdict is Verdict.PASS
    assert v["min_distinct"].verdict is Verdict.FAIL
    assert "r = 3 < 9" in v["min_distinct"].detail
    assert report.overall is Overall.REFUTED
    assert [x.id for x in report.verdicts] == ALL_IDS


def test_audit_even_short_circuits():
    report = audit(parse_factorization("2^2*7"))
    assert report.overall is Overall.REFUTED
    assert len(report.verdicts) == 1
    assert report.verdicts[0].id == "parity"
    assert report.verdicts[0].verdict is Verdict.FAIL


def test_audit_unit():
    report = audit(Factorization(()))
    assert report.overall is Overall.REFUTED
    assert report.verdicts[0].id == "parity"


def test_euler_form_all_even_exponents():
    report = audit(parse_factorization("3^2*5^2*7^2"))
    v = by_id(report)
    assert v["euler_form"].verdict is Verdict.FAIL
    assert report.overall is Overall.REFUTED


def test_euler_form_wrong_modulus():
    # special prime 3 = 3 (mod 4)
    v = by_id(audit(parse_factorization("3*5^2")))
    assert v["euler_form"].verdict is Verdict.FAIL
    # special exponent 3 = 3 (mod 4)
    v = by_id(audit(parse_factorization("5^3*7^2")))
    assert v["euler_form"].verdict is Verdict.FAIL
    # well-formed: 5^1 * (3*7)^2
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["euler_form"].verdict is Verdict.PASS
    assert "P = 5" in v["euler_form"].detail
    assert "Q = 3*7" in v["euler_form"].detail


def test_steuerwald():
    v = by_id(audit(parse_factorization("3*5*13")))
    assert v["steuerwald"].verdict is Verdict.FAIL
    v = by_id(audit(parse_factorization("3^2*5")))
    assert v["steuerwald"].verdict is Verdict.PASS


def test_touchard():
    # 2205 = 9 (mod 36) passes; 15 = 3 (mod 12), 15 (mod 36) fails
    assert by_id(audit(parse_factorization("3^2*5*7^2")))["touchard"].verdict is Verdict.PASS
    assert by_id(audit(parse_factorization("3*5")))["touchard"].verdict is Verdict.FAIL
    # 13 = 1 (mod 12)
    assert by_id(audit(parse_factorization("13")))["touchard"].verdict is Verdict.PASS


def test_conditional_min_distinct():
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["min_distinct_no3"].verdict is Verdict.NOT_APPLICABLE
    assert v["min_distinct_no3no5"].verdict is Verdict.NOT_APPLICABLE
    assert v["min_distinct_no357"].verdict is Verdict.NOT_APPLICABLE
    v = by_id(audit(parse_factorization("5^2*7*11^2")))
    assert v["min_distinct_no3"].verdict is Verdict.FAIL
    assert v["min_distinct_no3no5"].verdict is Verdict.NOT_APPLICABLE
    v = by_id(audit(parse_factorization("7^2*11*13^2")))
    assert v["min_distinct_no3no5"].verdict is Verdict.FAIL
    assert v["min_distinct_no357"].verdict is Verdict.NOT_APPLICABLE
    v = by_id(audit(parse_factorization("11^2*13*17^2")))
    assert v["min_distinct_no357"].verdict is Verdict.FAIL


def test_hare_omega():
    v = by_id(audit(parse_factorization("3^40*5^34*13")))
    assert v["hare_omega"].verdict is Verdict.PASS
    v = by_id(audit(parse_factorization("3^2*5")))
    assert v["hare_omega"].verdict is Verdict.FAIL


def test_largest_three():
    v = by_id(audit(parse_factorization("101^2*10007*100000007")))
    assert v["largest_three"].verdict is Verdict.PASS
    # third-largest only just misses: 3 <= 10^2
    v = by_id(audit(parse_factorization("3^2*10007*100000007")))
    assert v["largest_three"].verdict is Verdict.FAIL
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["largest_three"].verdict is Verdict.FAIL


# r = 2 and r = 1: a missing prime fails, named by its rank
@pytest.mark.parametrize("text, detail", [
    ("100000007^2*10007", "100000007 > 10^8; 10007 > 10^4; third largest prime absent"),
    ("100000007^2", "100000007 > 10^8; second largest prime absent; third largest prime absent"),
])
def test_largest_three_fails_without_three_primes(text, detail):
    report = audit(parse_factorization(text))
    v = by_id(report)
    assert (v["largest_three"].verdict, v["largest_three"].detail) == (Verdict.FAIL, detail)
    # min_distinct already fails, so the overall verdict is the same
    assert v["min_distinct"].verdict is Verdict.FAIL
    assert report.overall is Overall.REFUTED


def test_perisastri():
    # p_1 = 3 needs 9 <= 2r + 9: true for every r
    assert by_id(audit(parse_factorization("3*5^2")))["perisastri_smallest"].verdict is Verdict.PASS
    # p_1 = 7 with r = 2: 21 > 13
    assert by_id(audit(parse_factorization("7*11^2")))["perisastri_smallest"].verdict is Verdict.FAIL


def test_kishore():
    # p_2 must stay below 2^2 * (r - 1): 5^2*41*43 has p_2 = 41 >= 4*2 = 8
    v = by_id(audit(parse_factorization("5^2*41*43")))
    assert v["kishore"].verdict is Verdict.FAIL
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["kishore"].verdict is Verdict.PASS
    v = by_id(audit(parse_factorization("3^2")))
    assert v["kishore"].verdict is Verdict.NOT_APPLICABLE


def test_cohen_component():
    v = by_id(audit(parse_factorization("3^50*5")))
    assert v["cohen_component"].verdict is Verdict.PASS
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["cohen_component"].verdict is Verdict.FAIL


def test_power_exceeds():
    # a prime power against 10^20 by log2 windows, never expanded when huge
    def exceeds(p, e):
        return _compare_factored(((p, e),), ((2, 20), (5, 20))) is Ordering3.ABOVE

    assert exceeds(3, 50)
    assert not exceeds(3, 2)
    assert exceeds(10**21 + 7 + 10, 1)
    assert not exceeds(99999989, 2)  # ~1e16
    assert exceeds(3, 2**31)


def test_cohen_component_in_integers():
    # 3^41 < 10^20 < 3^42 falls between the two bit-length rules
    assert 3**41 < 10**20 < 3**42
    assert not _exceeds_ten_to_20(3, 41) and _exceeds_ten_to_20(3, 42)
    for text, verdict, detail in (
        ("3^41*5", Verdict.FAIL, "no prime-power component exceeds 10^20"),
        ("3^42*5", Verdict.PASS, "3^42 > 10^20"),
    ):
        v = by_id(audit(parse_factorization(text)))["cohen_component"]
        assert (v.verdict, v.detail) == (verdict, detail)
    assert _exceeds_ten_to_20(3, 2**31) and not _exceeds_ten_to_20(2, 66) and _exceeds_ten_to_20(2, 67)


@settings(max_examples=300)
@given(st.integers(2, 2**70), st.integers(1, 140))
def test_cohen_component_matches_exact_power(p, e):
    # against the expanded power and the log2-window comparator
    expected = p**e > 10**20
    assert _exceeds_ten_to_20(p, e) is expected
    window = _compare_factored(((p, e),), ((2, 20), (5, 20)))
    assert (window is Ordering3.ABOVE) is expected


def pow2(k):
    return ((2, k),)


def pow10(d):
    return ((2, d), (5, d))


def test_size_comparisons():
    pairs_small = ((3, 2), (5, 1))
    assert _compare_factored(pairs_small, pow10(300)) is Ordering3.BELOW
    assert _compare_factored(pairs_small, pow2(4**2)) is Ordering3.BELOW
    pairs_huge = ((3, 1000), (5, 1))  # ~10^477
    assert _compare_factored(pairs_huge, pow10(300)) is Ordering3.ABOVE
    assert _compare_factored(pairs_huge, pow2(100)) is Ordering3.ABOVE
    # boundary-ish: 3^628 is just above 10^299.6
    assert _compare_factored(((3, 629),), pow10(300)) is Ordering3.ABOVE
    assert _compare_factored(((3, 628),), pow10(300)) is Ordering3.BELOW
    # gigantic exponents never materialize
    assert _compare_factored(((3, 2**31),), pow10(300)) is Ordering3.ABOVE
    assert _compare_factored(((3, 2**31),), pow2(4**9)) is Ordering3.ABOVE
    assert _compare_factored(((3, 2**31),), pow2(4**20)) is Ordering3.BELOW
    # log2(3^(2^31)) - 3.403e9 is about 6.6e5: only the 4096 scale decides,
    # and only because the window of 2^k is exactly k
    assert _compare_factored(((3, 2**31),), pow2(3_403_000_000)) is Ordering3.ABOVE


def test_size_comparisons_against_exact_values():
    rng = random.Random(2024)
    pool = primes_up_to(200)[1:]
    for _ in range(400):
        pairs = tuple((p, rng.randint(1, 40)) for p in sorted(rng.sample(pool, rng.randint(1, 4))))
        v = prod(p**e for p, e in pairs)
        k = v.bit_length() + rng.randint(-2, 1)
        d = len(str(v)) + rng.randint(-2, 1)
        for target, t in ((pow2(k), 2**k), (pow10(d), 10**d)):
            want = Ordering3.BELOW if v < t else Ordering3.ABOVE
            assert _compare_factored(pairs, target) is want, (pairs, target)


def test_brent_and_nielsen_verdicts():
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["brent_size"].verdict is Verdict.FAIL
    assert v["nielsen_size"].verdict is Verdict.PASS
    # 3^1000 > 10^300 but also >= 2^(4^1)
    v = by_id(audit(parse_factorization("3^1000")))
    assert v["brent_size"].verdict is Verdict.PASS
    assert v["nielsen_size"].verdict is Verdict.FAIL
    # r = 11 and log2 N = 4**11 - 0.79: no log2 window separates N from
    # 2**(4**11), and N has 5292610 bits, too many to materialize
    text = "3^2646260*" + "*".join(f"{p}^2" for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    v = by_id(audit(parse_factorization(text)))
    assert v["nielsen_size"].verdict is Verdict.UNDECIDED
    assert v["nielsen_size"].detail == "N vs 2^(4^11) undecided at the log2 refinement cap"


def test_theorem_bound_verdicts():
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["radical_bound"].verdict is Verdict.PASS
    assert v["prime_sum_bound"].verdict is Verdict.PASS
    assert v["reciprocal_sum"].verdict is Verdict.PASS
    assert v["reciprocal_sum_refined"].verdict is Verdict.PASS
    # a reciprocal sum above 1 must fail both reciprocal checks
    v = by_id(audit(parse_factorization("3*5*7*11*13*17*19*23*29")))
    assert v["reciprocal_sum"].verdict is Verdict.FAIL
    assert v["reciprocal_sum_refined"].verdict is Verdict.FAIL


def test_perfect_exact_verdict():
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    assert v["perfect_exact"].verdict is Verdict.FAIL
    assert "4446" in v["perfect_exact"].detail and "4410" in v["perfect_exact"].detail


def test_exact_evaluation_cap():
    # the cap is sum(e * bitlen(p)) <= 66440: 3^33220 sits on it, 3^33221 is past it
    v = by_id(audit(parse_factorization("3^33220")))
    assert v["perfect_exact"].verdict is Verdict.FAIL
    v = by_id(audit(parse_factorization("3^33221")))
    assert v["perfect_exact"].verdict is Verdict.UNDECIDED
    assert v["perfect_exact"].detail == (
        "N exceeds the exact-evaluation cap: sum(e*bitlen(p)) = 66442 > 66440 bits"
    )


def test_overall_aggregation():
    # any Fail refutes regardless of the other verdicts
    assert audit(parse_factorization("3^2*5*7^2")).overall is Overall.REFUTED
    report = audit(parse_factorization("3^33221"))
    assert by_id(report)["perfect_exact"].verdict is Verdict.UNDECIDED
    assert report.overall is Overall.REFUTED  # Fail beats Undecided


def test_every_small_candidate_refuted():
    rng = random.Random(31337)
    for _ in range(80):
        n = rng.randint(2, 10**6)
        report = audit(Factorization(trial_factor(n)))
        assert report.overall is Overall.REFUTED, n


def test_refined_implies_plain_reciprocal():
    # whenever the refined ceiling is below 1 (r >= 2), refined Pass forces plain Pass
    rng = random.Random(4242)
    from opnkit.primes import primes_up_to

    pool = [p for p in primes_up_to(5000) if p >= 3]
    for _ in range(120):
        size = rng.randint(2, 10)
        primes = sorted(rng.sample(pool, size))
        f = Factorization(tuple((p, rng.randint(1, 3)) for p in primes))
        v = by_id(audit(f))
        if v["reciprocal_sum_refined"].verdict is Verdict.PASS:
            assert v["reciprocal_sum"].verdict is Verdict.PASS


def test_undecided_path_for_huge_well_formed_candidate():
    # passes or N/As every decidable check; only sigma(N) = 2N stays open
    # because N (~21000 digits) exceeds the exact-evaluation cap
    text = "3^44000*5^2*7^2*11^2*13^2*101^2*10007^2*100000007^2*100000037"
    report = audit(parse_factorization(text))
    v = by_id(report)
    assert v["perfect_exact"].verdict is Verdict.UNDECIDED
    assert report.overall is Overall.UNDECIDED
    for verdict in report.verdicts:
        assert verdict.verdict is not Verdict.FAIL, verdict
    assert v["brent_size"].verdict is Verdict.PASS
    assert v["nielsen_size"].verdict is Verdict.PASS
    assert v["euler_form"].verdict is Verdict.PASS
    assert v["touchard"].verdict is Verdict.PASS
    assert v["min_distinct"].verdict is Verdict.PASS


def test_fail_details_contain_quantities():
    report = audit(parse_factorization("3^2*5*7^2"))
    for v in report.verdicts:
        if v.verdict is Verdict.FAIL:
            assert any(ch.isdigit() for ch in v.detail), v


def test_explain_format():
    report = audit(parse_factorization("3^2*5*7^2"))
    text = explain(report)
    lines = text.splitlines()
    assert lines[-1] == "overall: Refuted"
    assert any(line.startswith("FAIL") for line in lines)
    assert "r = 3 < 9" in text
    assert explain(report) == text  # deterministic


def test_report_json():
    report = audit(parse_factorization("3^2*5*7^2"))
    doc = report.to_json_dict()
    assert doc["candidate"] == "3^2*5*7^2"
    assert doc["overall"] == "Refuted"
    assert {v["verdict"] for v in doc["verdicts"]} <= {"Pass", "Fail", "NotApplicable", "Undecided"}
    json.dumps(doc)


def test_bound_verdict_shows_deciding_enclosure(monkeypatch):
    # 105 clears the r = 3 radical bound (about 56.9) at the first step,
    # which a 16-bit cap clamps to 16 bits
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 16)
    v = by_id(audit(parse_factorization("3^2*5*7^2")))
    lo, hi = radical_lower_bound(3, 16).to_decimal_pair(20)
    assert v["radical_bound"].verdict is Verdict.PASS
    assert v["radical_bound"].detail == f"radical(N) = 105 vs lower bound in [{lo}, {hi}]"
    assert radical_lower_bound(3, 64).to_decimal_pair(20) != (lo, hi)


HUGE_WELL_FORMED = "3^44000*5^2*7^2*11^2*13^2*101^2*10007^2*100000007^2*100000037"


def never_excluding(r, bits):
    """An enclosure of 'the radical bound' that contains every quantity below
    2**4096, so no precision decides against it."""
    return Interval(Dyadic(0), Dyadic(1, 4096), bits)


def test_bound_verdict_undecided_at_cap(monkeypatch):
    # no product of distinct primes comes close enough to the real bound to
    # stay open, so the audit's evaluator is replaced by one that never
    # excludes the quantity
    monkeypatch.setattr(constraints, "radical_lower_bound", never_excluding)
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 256)
    f = parse_factorization(HUGE_WELL_FORMED)
    report = audit(f)
    v = by_id(report)["radical_bound"]
    assert v.verdict is Verdict.UNDECIDED
    assert v.detail.startswith(f"radical(N) = {prod(f.primes)} vs lower bound in [0, ")
    assert v.detail.endswith(" (undecided at 256-bit cap)")
    assert report.overall is Overall.UNDECIDED
    assert Verdict.FAIL not in {verdict.verdict for verdict in report.verdicts}


@contextlib.contextmanager
def unlimited_int_str():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def fmt_int_via_str(x, max_digits=40):
    s = str(x)
    if len(s) <= max_digits:
        return s
    return f"{s[0]}.{s[1:16]}e{len(s) - 1} ({len(s)} digits)"


def test_fmt_int_matches_str_rendering():
    rng = random.Random(4300)
    values = [rng.randrange(10 ** rng.randint(1, 4299)) for _ in range(600)]
    for k in (1, 15, 16, 17, 39, 40, 41, 100, 1000, 4298, 4299):
        values += [10**k - 1, 10**k, 10**k + 1]
    # past str()'s limit, up to 20000 digits
    values += [rng.randrange(10 ** rng.randint(4300, 20000)) for _ in range(30)]
    for k in (4300, 4301, 9999, 19999):
        values += [10**k - 1, 10**k, 10**k + 1]
    got = [_fmt_int(x) for x in values]
    with unlimited_int_str():
        want = [fmt_int_via_str(x) for x in values]
    for g, w in zip(got, want):
        assert g == w


def test_reciprocal_sums_beyond_str_digit_limit():
    # the first 2000 odd primes, the last to the first power: sum(1/p) has
    # the radical as its denominator, the refined ceiling P^2000
    primes = primes_up_to(20_000)[1:2001]
    f = Factorization(tuple((p, 2) for p in primes[:-1]) + ((primes[-1], 1),))
    report = audit(f)
    assert report.overall is Overall.REFUTED
    v = by_id(report)
    recip = sum(Fraction(1, p) for p in primes)
    rhs = refined_reciprocal_rhs(2000, primes[-1])
    assert 0 < rhs < 1 < recip
    with unlimited_int_str():
        assert v["reciprocal_sum"].detail == f"sum(1/p) = {recip} >= 1"
        assert v["reciprocal_sum_refined"].detail == f"sum(1/p) = {recip} >= refined ceiling {rhs}"


@pytest.mark.parametrize(
    "text", ["3^10001*5^2*7^2", "3^2*5^2*13^9001", "3^2*5^2*7^2*11^2*17^13001"]
)
def test_audit_beyond_str_digit_limit(text):
    # N has 4300..20000 digits: evaluated exactly, rendered without str()
    f = parse_factorization(text)
    report = audit(f)
    assert report.overall is Overall.REFUTED
    v = by_id(report)
    assert v["perfect_exact"].verdict is Verdict.FAIL
    n = prod(p**e for p, e in f.pairs)
    s = prod((p ** (e + 1) - 1) // (p - 1) for p, e in f.pairs)
    with unlimited_int_str():
        want = f"sigma(N) = {fmt_int_via_str(s)} != 2N = {fmt_int_via_str(2 * n)}"
    assert v["perfect_exact"].detail == want
