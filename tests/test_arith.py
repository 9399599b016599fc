import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from opnkit.arith import (
    Factorization,
    NonPrimeFactorError,
    ParseError,
    elementary_symmetric,
    parse_factorization,
    render,
    sigma,
    value,
)
from opnkit.primes import primes_up_to
from test_primes import fixed_base_liar
from trial_division import trial_factor


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


def test_parse_reads_decimal_digits_of_any_script():
    assert parse_factorization("٣^2*\t5").pairs == ((3, 2), (5, 1))


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
    # an exponent's error points where its digits start, zero padding
    # included; a superscript passes str.isdigit but is no digit to int()
    for text, position in (
        ("3^2*", 4), ("3^000", 2), ("3^0004294967296", 2), ("3 ^ 0", 4),
        ("3²", 1), ("3^²", 2), ("³", 0), ("3*5²*7", 3),
    ):
        with pytest.raises(ParseError) as exc:
            parse_factorization(text)
        assert exc.value.position == position, text


# digits, the grammar's symbols, blanks, a superscript, an Arabic-Indic
# digit and letters
_FACTOR_TEXT = st.text(alphabet="0123456789^* \t²٣ax", max_size=12)


@settings(max_examples=300)
@given(_FACTOR_TEXT)
def test_parse_raises_only_its_own_errors(text):
    try:
        parse_factorization(text)
    except (ParseError, NonPrimeFactorError):
        pass


def test_exponent_range():
    with pytest.raises(ParseError):
        parse_factorization(f"3^{2**32}")
    with pytest.raises(ValueError):
        Factorization(((3, 0),))


def test_composite_built_for_fixed_bases_rejected():
    n = math.prod(fixed_base_liar())
    with pytest.raises(NonPrimeFactorError) as exc:
        parse_factorization(f"3^2*{n}")
    assert exc.value.factor == n
    with pytest.raises(NonPrimeFactorError):
        Factorization(((3, 2), (n, 1)))


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


def reciprocal_sums(primes) -> list[Fraction]:
    """[S_1, ..., S_r] from the elementary symmetric polynomials, S_k = e_(r-k) / e_r."""
    coeffs = elementary_symmetric(primes)
    r = len(primes)
    return [Fraction(coeffs[r - k], coeffs[r]) for k in range(1, r + 1)]


def test_symmetric_sums_example():
    assert elementary_symmetric((3, 5, 7)) == [1, 15, 71, 105]
    assert reciprocal_sums((3, 5, 7)) == [Fraction(71, 105), Fraction(1, 7), Fraction(1, 105)]
    assert reciprocal_sums((3,)) == [Fraction(1, 3)]
    assert elementary_symmetric(()) == [1]


def test_symmetric_sums_against_subset_oracle():
    primes = (3, 7, 11, 19, 29)
    got = reciprocal_sums(primes)
    for k in range(1, len(primes) + 1):
        assert got[k - 1] == sk_brute(primes, k)


def test_expansion_identity():
    # prod(1 + p) == radical * (1 + sum S_k), exactly
    for text in ("3*5*7", "3^4*11", "5^2*13^3*17", "3"):
        primes = parse_factorization(text).primes
        lhs = math.prod(p + 1 for p in primes)
        rhs = math.prod(primes) * (1 + sum(reciprocal_sums(primes), Fraction(0)))
        assert lhs == rhs


# --- sigma over factorizations found by trial division ------------------------


def test_sigma_oracle_small():
    for n in range(1, 3000):
        assert sigma(Factorization(trial_factor(n))) == sigma_brute(n)


def test_multiplicativity_random():
    import random

    rng = random.Random(12345)
    pool = [p for p in primes_up_to(500)]
    for _ in range(200):
        k = rng.randint(1, 4)
        chosen = rng.sample(pool, 2 * k)
        left = Factorization(tuple(sorted((p, rng.randint(1, 5)) for p in chosen[:k])))
        right = Factorization(tuple(sorted((p, rng.randint(1, 5)) for p in chosen[k:])))
        merged = Factorization(tuple(sorted(left.pairs + right.pairs)))
        assert sigma(merged) == sigma(left) * sigma(right)


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
