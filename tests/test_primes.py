import math

import pytest

from opnkit.primes import is_prime, primes_up_to


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


def test_primes_up_to():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
