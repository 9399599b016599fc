"""Primality testing and small-prime tables.

Plain-integer utilities with no dependencies on the rest of the package:
a Miller-Rabin test that is deterministic below 2**64, and a byte sieve
of Eratosthenes.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Strong-test witnesses that decide primality for every n < 2**64
# (Sinclair's seven-base set, verified against the Feitsma-Galway
# strong-pseudoprime tables).
_WITNESSES_U64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=32)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by a byte sieve of Eratosthenes."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


#: Strong-test bases used at or above 2**64: the first 24 primes (89 is the
#: 24th).  A composite survives all of them with probability below 4**-24.
_WIDE_BASES = primes_up_to(89)


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n >= 3
    base %= n
    if base == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test, deterministic and exact for all n < 2**64.

    At or above 2**64 it becomes a strong probable-prime test whose bases
    are the first 24 primes (still deterministic, never randomized): a
    composite passes it with probability below 4**-24.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1 << 64:
        return all(_strong_probable_prime(n, a) for a in _WITNESSES_U64)
    return all(_strong_probable_prime(n, a) for a in _WIDE_BASES)

