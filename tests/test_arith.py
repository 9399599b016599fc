import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from opnkit.arith import (
    Classification,
    Factorization,
    NonPrimeFactorError,
    ParseError,
    abundancy,
    classify,
    factorize,
    parse_factorization,
    prime_sum,
    radical,
    reciprocal_sum,
    render,
    sigma,
    symmetric_reciprocal_sums,
    value,
)
from opnkit.primes import primes_up_to


def sigma_brute(n: int) -> int:
    """Independent oracle: enumerate divisor pairs up to sqrt(n)."""
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def sk_brute(primes, k) -> Fraction:
    """Independent oracle: explicit k-subset enumeration."""
    return sum(
        (Fraction(1, math.prod(sub)) for sub in combinations(primes, k)), Fraction(0)
    )


# --- parsing and rendering ---------------------------------------------------


def test_parse_basic():
    assert parse_factorization("3^2*5*7^2").pairs == ((3, 2), (5, 1), (7, 2))


def test_parse_merges_and_sorts():
    assert parse_factorization("5*3^2*5").pairs == ((3, 2), (5, 2))


def test_parse_whitespace():
    assert parse_factorization(" 3 ^ 2 * 5 ").pairs == ((3, 2), (5, 1))


def test_parse_composite_rejected():
    with pytest.raises(NonPrimeFactorError) as exc:
        parse_factorization("3^2*15")
    assert exc.value.factor == 15


def test_parse_names_first_bad_factor_in_input_order():
    # 0 and 1 are rejected first; then primality is tested in order of first
    # appearance, not in sorted order
    with pytest.raises(NonPrimeFactorError) as exc:
        parse_factorization("3*25*9")
    assert exc.value.factor == 25
    with pytest.raises(NonPrimeFactorError) as exc:
        parse_factorization("9*0")
    assert exc.value.factor == 0


def test_parse_tests_each_distinct_prime_once(monkeypatch):
    import opnkit.arith as arith

    tested = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n, *a: tested.append(n) or real(n, *a))
    f = parse_factorization("7^2*3^2*5*7*3")
    assert sorted(tested) == [3, 5, 7]
    assert f == Factorization(((3, 3), (5, 1), (7, 3)))


def test_parse_zero_one_rejected():
    with pytest.raises(NonPrimeFactorError):
        parse_factorization("3*1")
    with pytest.raises(NonPrimeFactorError):
        parse_factorization("0")


def test_parse_unit_literal():
    assert parse_factorization("1").pairs == ()
    with pytest.raises((ParseError, NonPrimeFactorError)):
        parse_factorization("1^3")


@pytest.mark.parametrize("bad", ["", "3**5", "3^", "^2", "3*", "3 5", "3^0", "a*5"])
def test_parse_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse_factorization(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_factorization("3^2*")
    assert exc.value.position == 4


def test_exponent_range():
    with pytest.raises(ParseError):
        parse_factorization(f"3^{2**32}")
    with pytest.raises(ValueError):
        Factorization(((3, 0),))


def test_constructor_invariants():
    with pytest.raises(ValueError):
        Factorization(((5, 1), (3, 1)))  # out of order
    with pytest.raises(NonPrimeFactorError):
        Factorization(((4, 1),))


def test_render():
    assert render(parse_factorization("3^3*5*7")) == "3^3*5*7"
    assert render(Factorization(())) == "1"


# --- core operations ----------------------------------------------------------


def test_value_examples():
    assert value(Factorization(())) == 1
    assert value(parse_factorization("3^3*5*7")) == 945
    assert value(parse_factorization("2^2*7")) == 28


def test_sigma_examples():
    assert sigma(parse_factorization("2^2*7")) == 56
    assert sigma(parse_factorization("3^3*5*7")) == sigma_brute(945) == 1920
    assert sigma(Factorization(())) == 1


def test_radical_and_prime_sum():
    f = parse_factorization("3^3*5*7")
    assert radical(f) == 105
    assert prime_sum(f) == 15
    assert radical(Factorization(())) == 1
    assert prime_sum(Factorization(())) == 0
    assert radical(parse_factorization("3^2*5^2")) == 15
    assert prime_sum(parse_factorization("3")) == 3


def test_abundancy_examples():
    assert abundancy(parse_factorization("2^2*7")) == 1
    assert abundancy(parse_factorization("3*5")) == Fraction(4, 5)
    assert abundancy(parse_factorization("3^3*5*7")) == Fraction(1920, 1890) == Fraction(64, 63)


def test_classify_examples():
    assert classify(parse_factorization("2^2*7")) is Classification.PERFECT
    assert classify(parse_factorization("3^3*5*7")) is Classification.ABUNDANT
    assert classify(parse_factorization("3")) is Classification.DEFICIENT


def test_classify_iff_abundancy_one():
    for n in range(2, 2000):
        f = factorize(n)
        assert (abundancy(f) == 1) == (classify(f) is Classification.PERFECT)


def test_reciprocal_sum_examples():
    assert reciprocal_sum(parse_factorization("3*5*7")) == Fraction(71, 105)
    assert reciprocal_sum(parse_factorization("3")) == Fraction(1, 3)
    assert reciprocal_sum(Factorization(())) == Fraction(0, 1)


def test_symmetric_sums_example():
    got = symmetric_reciprocal_sums(parse_factorization("3*5*7"))
    assert got == [Fraction(71, 105), Fraction(1, 7), Fraction(1, 105)]
    assert symmetric_reciprocal_sums(parse_factorization("3")) == [Fraction(1, 3)]


def test_symmetric_sums_against_subset_oracle():
    primes = (3, 7, 11, 19, 29)
    f = Factorization(tuple((p, 1) for p in primes))
    got = symmetric_reciprocal_sums(f)
    for k in range(1, len(primes) + 1):
        assert got[k - 1] == sk_brute(primes, k)


def test_expansion_identity():
    # prod(1 + p) == radical * (1 + sum S_k), exactly
    for text in ("3*5*7", "3^4*11", "5^2*13^3*17", "3"):
        f = parse_factorization(text)
        lhs = math.prod(p + 1 for p in f.primes)
        rhs = radical(f) * (1 + sum(symmetric_reciprocal_sums(f), Fraction(0)))
        assert lhs == rhs


# --- factorize ----------------------------------------------------------------


def test_factorize_examples():
    assert factorize(945).pairs == ((3, 3), (5, 1), (7, 1))
    assert factorize(1).pairs == ()


def test_sigma_oracle_small():
    for n in range(1, 3000):
        assert sigma(factorize(n)) == sigma_brute(n)


def test_multiplicativity_random():
    import random

    rng = random.Random(12345)
    pool = [p for p in primes_up_to(500)]
    for _ in range(200):
        k = rng.randint(1, 4)
        chosen = rng.sample(pool, 2 * k)
        left = Factorization(tuple(sorted((p, rng.randint(1, 5)) for p in chosen[:k])))
        right = Factorization(tuple(sorted((p, rng.randint(1, 5)) for p in chosen[k:])))
        merged = Factorization.from_pairs(left.pairs + right.pairs)
        assert sigma(merged) == sigma(left) * sigma(right)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**9))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert value(f) == n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(primes_up_to(300)), min_size=1, max_size=5, unique=True
    ).flatmap(
        lambda ps: st.tuples(
            st.just(ps), st.lists(st.integers(1, 6), min_size=len(ps), max_size=len(ps))
        )
    )
)
def test_parse_render_roundtrip(case):
    ps, es = case
    f = Factorization(tuple(sorted(zip(ps, es))))
    assert parse_factorization(render(f)) == f
