import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnkit import arith, primes
from opnkit.arith import parse_factorization
from opnkit.primes import (
    _WITNESSES_U64,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    is_prime,
    primes_up_to,
)


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_small_values():
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_exhaustive_below_10000():
    table = set(primes_up_to(10_000))
    for n in range(10_000 + 1):
        assert is_prime(n) == (n in table) == is_prime_trial(n)


def test_exhaustive_across_the_table_edge():
    # the table answers up to 2**16, the three bases above it
    for n in range(1 << 17):
        assert is_prime(n) == is_prime_trial(n), n
    assert is_prime(65521)  # the largest prime in the table
    assert not is_prime(65536)  # the table's last entry
    assert is_prime(65537)  # the first prime past it


def test_negative_inputs():
    # a negative index would read the table from its end: -16 would read
    # 65521 and -65534 would read 3, both prime
    for n in (-1, -2, -7, -16, -65534, -65536, -65537, -(1 << 70)):
        assert not is_prime(n), n


@settings(max_examples=400)
@given(st.integers((1 << 16) + 1, (1 << 32) - 1).map(lambda n: n | 1))
@example(65537)
@example(4294967291)  # the largest prime below 2**32
@example(3215031751)
def test_three_bases_agree_with_seven(n):
    assert is_prime(n) == all(_strong_probable_prime(n, a) for a in _WITNESSES_U64)


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7; base 61 rejects it
        4759123141,  # 48781 * 97561, the first strong pseudoprime to bases 2, 7, 61
        3825123056546413051,  # strong pseudoprime to bases 2..23
        25326001,
        2152302898747,
    ],
)
def test_strong_pseudoprime_stress(n):
    assert not is_prime(n)
    assert not is_prime_trial(n)


def test_three_bases_stop_below_their_first_pseudoprime():
    # Jaeschke's bound: bases 2, 7 and 61 are fooled first at 4759123141,
    # which lies above 2**32 and so reaches the seven bases
    n = 48781 * 97561
    assert n == 4759123141 > 1 << 32
    assert all(_strong_probable_prime(n, a) for a in (2, 7, 61))
    assert not is_prime(n)
    assert not all(_strong_probable_prime(3215031751, a) for a in (2, 7, 61))


def test_parsing_small_primes_makes_no_strong_test(monkeypatch):
    # every prime at most 2**16 is read from the table; is_prime is still
    # called once per distinct prime
    small = primes_up_to(5000)[1:601]
    text = "*".join(map(str, small + small[:50]))
    tested = []
    strong = []

    def counting_is_prime(n):
        tested.append(n)
        return is_prime(n)

    def counting_strong(n, base):
        strong.append((n, base))
        return _strong_probable_prime(n, base)

    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    monkeypatch.setattr(primes, "_strong_probable_prime", counting_strong)
    f = parse_factorization(text)
    assert f.primes == small
    assert sorted(tested) == list(small)
    assert strong == []
    assert parse_factorization("65537").primes == (65537,)  # past the table
    assert strong == [(65537, 2), (65537, 7), (65537, 61)]


def test_large_known_primes():
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    assert is_prime(2**89 - 1)  # above the deterministic range


def fixed_base_liar() -> tuple[int, int, int]:
    """Three primes p_i = 3 (mod 8) whose 132-digit product n passes the
    strong test to every prime base up to 89, built after Arnault (Math.
    Comp. 64, 1995): (a/p_i) = -1 for every odd prime a <= 89, and each
    p_i - 1 divides n - 1, so a**((n - 1)/2) = -1 (mod n) for all of them."""
    p1 = 2963676212315743178513246506275854948446003
    return p1, 101 * (p1 - 1) + 1, 113 * (p1 - 1) + 1


def test_composite_built_for_fixed_bases_is_rejected():
    factors = fixed_base_liar()
    n = math.prod(factors)
    assert all(p >= 1 << 64 and is_prime(p) for p in factors)
    # the first 24 primes, the bases that once decided primality above 2**64
    assert all(_strong_probable_prime(n, a) for a in primes_up_to(89))
    assert not _strong_lucas_probable_prime(n)
    assert not is_prime(n)


def test_strong_lucas_half():
    # the first strong Lucas pseudoprimes for Selfridge's parameters (OEIS
    # A217255) pass the Lucas half alone; base 2 rejects them
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n)
        assert not _strong_probable_prime(n, 2)
        assert not is_prime(n)
    for p in (2**89 - 1, 2**127 - 1, 2**521 - 1):  # Mersenne primes
        assert _strong_lucas_probable_prime(p)
        assert is_prime(p)
        # a square has no D with (D/n) = -1, so it is rejected before the search
        assert not _strong_lucas_probable_prime(p * p)
        assert not is_prime(p * p)


def test_primes_up_to():
    assert primes_up_to(0) == ()
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(3) == (2, 3)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for limit in (1000, 65536, 65537, 10**5):
        assert primes_up_to(limit) == tuple(n for n in range(limit + 1) if is_prime_trial(n))
