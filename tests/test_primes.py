import math

import pytest

from opnkit.primes import _strong_lucas_probable_prime, _strong_probable_prime, is_prime, primes_up_to


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


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        25326001,
        2152302898747,
    ],
)
def test_strong_pseudoprime_stress(n):
    assert not is_prime(n)
    assert not is_prime_trial(n)


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
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
