import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations, compress
from math import comb, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnkit import bounds, checks
from opnkit.arith import Factorization, elementary_symmetric, parse_factorization, sigma, value
from opnkit.bounds import Ordering3, PrecisionExhaustedError, decide
from opnkit.checks import (
    CHAIN_LIMIT_MAX,
    PrimeSet,
    _chain_step_holds,
    check_bound_implication,
    check_exponent_lift,
    check_gm_hm_step,
    check_reciprocal_implication,
    check_refined_reciprocal_implication,
    random_prime_set,
    run_verify_suite,
)
from opnkit.interval import nth_root_enclosure
from opnkit.primes import primes_up_to
from trial_division import trial_factor

NEAR_EQUAL = (100000007, 100000037, 100000039, 100000049)


def s_k_by_subsets(primes, k) -> Fraction:
    """S_k, the sum of 1/prod(T) over the k-subsets T of the primes, by
    enumerating the subsets."""
    rad = prod(primes)
    return Fraction(sum(rad // prod(t) for t in combinations(primes, k)), rad)


def gm_hm_exact(primes, k) -> int:
    """Independent oracle for S_k vs C(r,k) * radical**(-k/r).

    Raising both sides to the r-th power clears the irrational root:
    S_k > C(r,k) * a**(-k/r)  <=>  S_k**r * a**k > C(r,k)**r.
    Returns the sign of the difference.
    """
    r = len(primes)
    s_k = s_k_by_subsets(primes, k)
    a = prod(primes)
    lhs = s_k**r * a**k
    rhs = Fraction(comb(r, k)) ** r
    return (lhs > rhs) - (lhs < rhs)


# --- PrimeSet -------------------------------------------------------------------


def test_prime_set_validation():
    PrimeSet((3, 5, 7))
    with pytest.raises(ValueError):
        PrimeSet((5, 3))
    with pytest.raises(ValueError):
        PrimeSet((2, 3))
    with pytest.raises(ValueError):
        PrimeSet((3, 9))
    with pytest.raises(ValueError):
        PrimeSet((3, 3))
    with pytest.raises(ValueError, match="empty prime set"):
        PrimeSet(())


def test_random_prime_set_deterministic():
    a = random_prime_set(random.Random(5))
    b = random_prime_set(random.Random(5))
    assert a == b
    assert all(p % 2 == 1 for p in a.primes)


# --- exponent lift (sigma(C)/2C > sigma(B)/2B) ------------------------------------


def test_lift_examples():
    assert check_exponent_lift(parse_factorization("3*5"), 0, 2)
    assert check_exponent_lift(parse_factorization("3"), 0, 2)


def test_lift_validation():
    with pytest.raises(ValueError):
        check_exponent_lift(parse_factorization("3^2*5"), 0, 3)  # exponent not 1
    with pytest.raises(ValueError):
        check_exponent_lift(parse_factorization("3*5"), 0, 1)  # n < 2
    with pytest.raises(ValueError):
        check_exponent_lift(parse_factorization("3*5"), 5, 2)  # bad index


def test_lift_randomized():
    rng = random.Random(424242)
    from opnkit.primes import primes_up_to

    pool = list(primes_up_to(1000))
    for _ in range(2000):
        size = rng.randint(1, 5)
        ps = sorted(rng.sample(pool, size))
        exps = [rng.randint(1, 9) for _ in ps]
        star = rng.randrange(size)
        exps[star] = 1
        b = Factorization(tuple(zip(ps, exps)))
        assert check_exponent_lift(b, star, rng.randint(2, 9))


# --- chain -----------------------------------------------------------------------


def steps_hold(pairs) -> bool:
    """The chain suite's verdict on n: `_chain_step_holds` at each (p, e) with e >= 2."""
    return all(_chain_step_holds(p, e) for p, e in pairs if e > 1)


def test_chain_examples():
    assert steps_hold([(3, 3), (5, 1), (7, 1)])
    assert steps_hold([(3, 1), (5, 1), (7, 1)])  # squarefree: constant chain
    assert steps_hold([(3, 2)])


def test_chain_strictness_detail():
    # for 945 = 3^3*5*7 the only strict step is the one restoring 3^3
    def abundancy(f):
        return Fraction(sigma(f), 2 * value(f))

    rad = parse_factorization("3*5*7")
    full = parse_factorization("3^3*5*7")
    assert abundancy(rad) < abundancy(full)
    assert abundancy(rad) == Fraction(192, 210)
    assert abundancy(full) == Fraction(64, 63)


def test_chain_exhaustive_small():
    for n in range(3, 20001, 2):
        assert steps_hold(trial_factor(n)), n


def chain_walk(pairs) -> bool:
    """Independent oracle for the chain: walk from the radical to n with v
    and s = sigma(v) carried whole, and cross-multiply at every step that
    restores an exponent >= 2."""
    v = prod(p for p, _ in pairs)
    s = prod(p + 1 for p, _ in pairs)
    for p, e in pairs:
        if e == 1:
            continue  # this chain step leaves the number unchanged
        v_next = v * p ** (e - 1)
        s_next = s // (p + 1) * ((p ** (e + 1) - 1) // (p - 1))
        if not s_next * v > s * v_next:  # strict abundancy increase required
            return False
        v, s = v_next, s_next
    return True


def test_chain_matches_walk_to_2e4():
    for n in range(3, 2 * 10**4 + 1, 2):
        pairs = trial_factor(n)
        assert steps_hold(pairs) == chain_walk(pairs), n


@settings(max_examples=200)
@given(st.dictionaries(st.sampled_from(primes_up_to(10**6)[1:]), st.integers(1, 40), min_size=1, max_size=6))
def test_chain_matches_walk_on_random_prime_powers(exponents):
    pairs = sorted(exponents.items())
    assert steps_hold(pairs) == chain_walk(pairs)


# --- GM-HM steps -------------------------------------------------------------------


def test_gm_hm_examples():
    ps = PrimeSet((3, 5, 7))
    assert check_gm_hm_step(ps, 1)
    assert check_gm_hm_step(ps, 2)
    assert not check_gm_hm_step(ps, 3)  # k = r: exact equality, strict form fails
    assert check_gm_hm_step(PrimeSet((3, 5)), 1)


def test_gm_hm_against_exact_oracle():
    rng = random.Random(99)
    for _ in range(60):
        ps = random_prime_set(rng, max_size=8, prime_cap=500)
        r = len(ps)
        for k in range(1, r + 1):
            expected = gm_hm_exact(ps.primes, k)
            got = check_gm_hm_step(ps, k)
            assert got == (expected > 0)
            if k == r:
                assert expected == 0


def test_gm_hm_validation():
    ps = PrimeSet((3, 5, 7))
    with pytest.raises(ValueError):
        check_gm_hm_step(ps, 0)
    with pytest.raises(ValueError):
        check_gm_hm_step(ps, 4)


def test_gm_hm_near_equal_primes():
    # near-equal primes leave a relative sliver of about 1e-14 between S_k
    # and its bound, yet the integer test decides every k
    tight = PrimeSet(NEAR_EQUAL)
    assert [check_gm_hm_step(tight, k) for k in range(1, 5)] == [True, True, True, False]


def certified_gm_hm(primes, k) -> Ordering3:
    """Reference verdict from a certified root: S_k against the enclosure of
    (C(r,k)**r / radical**k)**(1/r), refined until it excludes S_k."""
    r = len(primes)
    coeffs = elementary_symmetric(primes)
    s_k = Fraction(coeffs[r - k], coeffs[r])
    t = Fraction(comb(r, k) ** r, prod(primes) ** k)
    order, _ = decide(s_k, lambda bits: nth_root_enclosure(t, r, bits))
    return order


def test_gm_hm_against_certified_root():
    rng = random.Random(4242)
    sets = [random_prime_set(rng, max_size=20, prime_cap=10**5) for _ in range(170)]
    for ps in sets + [PrimeSet(NEAR_EQUAL)]:
        for k in range(1, len(ps)):  # at k = r both sides are equal: no strict verdict
            order = certified_gm_hm(ps.primes, k)
            assert order is not Ordering3.UNDECIDED
            assert check_gm_hm_step(ps, k) == (order is Ordering3.ABOVE), (ps.primes, k)


def test_gm_hm_against_mpmath():
    rng = random.Random(77)
    sets = [random_prime_set(rng, max_size=12, prime_cap=10**6) for _ in range(30)]
    with mpmath.workdps(250):
        for ps in sets + [PrimeSet(NEAR_EQUAL)]:
            r = len(ps)
            rad = mpmath.mpf(prod(ps.primes))
            for k in range(1, r):
                s_exact = s_k_by_subsets(ps.primes, k)
                s_k = mpmath.mpf(s_exact.numerator) / s_exact.denominator
                gap = s_k - comb(r, k) * rad ** (-mpmath.mpf(k) / r)
                assert abs(gap) > s_k * mpmath.mpf(10) ** -200  # the sign is meaningful
                assert check_gm_hm_step(ps, k) == (gap > 0), (ps.primes, k)


# --- implications -------------------------------------------------------------------


def test_bound_implication_examples():
    assert check_bound_implication(PrimeSet((3, 5)))  # premise holds, bounds clear
    assert check_bound_implication(PrimeSet((3, 5, 7)))
    # premise fails: prod(1+p) = 32256 >= 2*prod(p) = 30030
    big = PrimeSet((3, 5, 7, 11, 13))
    assert prod(p + 1 for p in big.primes) >= 2 * prod(big.primes)
    assert check_bound_implication(big)


def test_reciprocal_implication_examples():
    assert check_reciprocal_implication(PrimeSet((3, 5, 7)))
    assert check_reciprocal_implication(PrimeSet((3,)))
    assert check_reciprocal_implication(PrimeSet((3, 5, 7, 11, 13)))  # vacuous


def test_refined_reciprocal_examples():
    # 71/105 < 321/343, and S_2 + S_3 = 16/105 >= (8/7)^3 - 10/7 = 22/343
    assert Fraction(71, 105) < Fraction(321, 343)
    assert Fraction(16, 105) > Fraction(22, 343)
    assert check_refined_reciprocal_implication(PrimeSet((3, 5, 7)))
    assert check_refined_reciprocal_implication(PrimeSet((3,)))


def recip_by_fractions(primes) -> bool:
    return not prod(p + 1 for p in primes) < 2 * prod(primes) or sum(Fraction(1, p) for p in primes) < 1


def refined_recip_by_fractions(primes) -> bool:
    r = len(primes)
    coeffs = elementary_symmetric(primes)
    sums = [Fraction(coeffs[r - k], coeffs[r]) for k in range(1, r + 1)]
    ceiling = bounds.refined_reciprocal_rhs(r, primes[-1])
    if sum(sums[1:], Fraction(0)) < 1 - ceiling:
        return False
    return not prod(p + 1 for p in primes) < 2 * prod(primes) or sums[0] < ceiling


@settings(max_examples=300)
@given(st.lists(st.sampled_from(primes_up_to(2000)[1:]), min_size=1, max_size=14, unique=True))
def test_reciprocal_checks_match_fraction_forms(primes):
    # the integer cross-multiplications decide as the Fraction sums do; the
    # small primes reach the premise, and the refined inequality is tight at r = 1
    ps = PrimeSet(tuple(sorted(primes)))
    assert check_reciprocal_implication(ps) is recip_by_fractions(ps.primes)
    assert check_refined_reciprocal_implication(ps) is refined_recip_by_fractions(ps.primes)


def test_refined_reciprocal_boundary(monkeypatch):
    # S_2 + S_3 = 16/105 for (3, 5, 7): the supporting inequality holds at a
    # ceiling of exactly 1 - 16/105 and fails just below it
    ps = PrimeSet((3, 5, 7))
    for ceiling, holds in ((Fraction(89, 105), True), (Fraction(89, 105) - Fraction(1, 10**9), False)):
        monkeypatch.setattr(checks, "refined_reciprocal_rhs", lambda r, p: ceiling)
        assert check_refined_reciprocal_implication(ps) is holds


def test_implications_randomized():
    rng = random.Random(2718)
    for _ in range(400):
        ps = random_prime_set(rng)
        assert check_bound_implication(ps)
        assert check_reciprocal_implication(ps)
        assert check_refined_reciprocal_implication(ps)


# --- suite runner ---------------------------------------------------------------------


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_verify_suite("nope")


@pytest.mark.parametrize("suite", ["lift", "gmhm", "bounds", "recip", "recip-refined"])
def test_run_suite_passes(suite):
    result = run_verify_suite(suite, trials=50, seed=11)
    assert result.passed
    assert result.checked >= 50 or suite == "gmhm"


SUITE_CHECKS = {
    "lift": check_exponent_lift,
    "chain": _chain_step_holds,
    "gmhm": check_gm_hm_step,
    "bounds": check_bound_implication,
    "recip": check_reciprocal_implication,
    "recip-refined": check_refined_reciprocal_implication,
}


def test_every_suite_reaches_its_own_check():
    # record which check functions each suite's run calls, however it
    # dispatches: each suite reaches its own check and no other one.  A
    # check marked `shares_roots` runs inside the decorator's wrapper, whose
    # code every marked function shares, so each check is known by its own
    codes = {inspect.unwrap(fn).__code__: name for name, fn in SUITE_CHECKS.items()}
    assert set(SUITE_CHECKS) == set(checks.SUITES)
    for suite in checks.SUITES:
        reached = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                reached.add(codes[frame.f_code])

        sys.setprofile(profile)
        try:
            run_verify_suite(suite, trials=20, seed=5, limit=100)
        finally:
            sys.setprofile(None)
        assert reached == {suite}, suite


def test_lift_suite_makes_no_primality_test(monkeypatch):
    # the lift cases draw their primes from the sieve, so none is tested again
    import opnkit.arith
    import opnkit.primes

    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return True

    for module in (opnkit.arith, opnkit.primes, checks):
        monkeypatch.setattr(module, "is_prime", counting_is_prime)
    result = run_verify_suite("lift", trials=200, seed=20100806)
    assert result.passed and result.checked == 200
    assert calls == []


def test_run_suite_honours_precision_cap(monkeypatch):
    # the bounds suite is the one that refines intervals: the cap must reach
    # every comparison, and an open one must raise
    real = bounds.decide
    asked = []  # the bits of every enclosure each comparison requests

    def spy(x, enclose):
        bits = []
        asked.append(bits)
        return real(x, lambda b: (bits.append(b), enclose(b))[1])

    default = run_verify_suite("bounds", trials=50, seed=11)
    monkeypatch.setattr(bounds, "decide", spy)
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 16)
    lowered = run_verify_suite("bounds", trials=50, seed=11)
    assert asked and all(bits == [16] for bits in asked)
    assert default.passed
    assert lowered.to_json_dict() == default.to_json_dict()
    monkeypatch.setattr(checks, "compare_rational_to_bound", lambda *args: Ordering3.UNDECIDED)
    with pytest.raises(PrecisionExhaustedError):
        run_verify_suite("bounds", trials=50, seed=11)


def test_random_prime_set_pool_unchanged():
    # the pool is a slice of the cached sieve; draws must match a fresh pool
    from opnkit.primes import primes_up_to

    for cap in (10**4, 200):
        rng, ref = random.Random(8), random.Random(8)
        for _ in range(30):
            pool = [p for p in primes_up_to(cap) if p >= 3]
            r = ref.randint(1, 12)
            expected = tuple(sorted(ref.sample(pool, r)))
            assert random_prime_set(rng, prime_cap=cap).primes == expected


def test_random_prime_set_trusts_the_sieve(monkeypatch):
    # draws come from the sieve, so they are not primality-tested again;
    # a PrimeSet built by hand still is
    import opnkit.checks as checks

    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return True

    monkeypatch.setattr(checks, "is_prime", counting_is_prime)
    rng = random.Random(3)
    for _ in range(50):
        ps = random_prime_set(rng, prime_cap=500)
        assert all(p % 2 == 1 for p in ps.primes)
        assert list(ps.primes) == sorted(set(ps.primes))
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ValueError):
        PrimeSet((3, 9))


def test_run_suite_chain():
    result = run_verify_suite("chain", limit=5000)
    assert result.passed
    assert result.checked == len(range(3, 5001, 2))


@pytest.mark.parametrize("limit", [3, 9, 25, 27, 10**4 + 1])
def test_chain_suite_walks_exactly_the_n_with_a_square_factor(monkeypatch, limit):
    walked, decided = [], []

    def recording_compress(data, selectors):
        for n in compress(data, selectors):
            walked.append(n)
            yield n

    def failing_step(p, e):
        decided.append((p, e))
        return False

    expected = [n for n in range(3, limit + 1, 2) if any(e >= 2 for _, e in trial_factor(n))]
    assert run_verify_suite("chain", limit=limit).passed
    monkeypatch.setattr(checks, "compress", recording_compress)
    monkeypatch.setattr(checks, "_chain_step_holds", failing_step)
    result = run_verify_suite("chain", limit=limit)
    assert walked == expected
    # every walked n reaches a step, and each (p, e) is decided once per call
    assert result.violations == [f"n={n}" for n in expected]
    assert len(decided) == len(set(decided))
    assert result.checked == len(range(3, limit + 1, 2))


def test_chain_suite_ceiling_checked_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def sieve(limit):
        raise Allocated(limit)

    monkeypatch.setattr(checks, "spf_sieve_odd", sieve)
    with pytest.raises(ValueError, match="at most"):
        run_verify_suite("chain", limit=CHAIN_LIMIT_MAX + 1)
    with pytest.raises(Allocated):  # the ceiling itself passes validation
        run_verify_suite("chain", limit=CHAIN_LIMIT_MAX)


def test_run_suite_deterministic():
    a = run_verify_suite("bounds", trials=40, seed=3)
    b = run_verify_suite("bounds", trials=40, seed=3)
    assert a.to_json_dict() == b.to_json_dict()
