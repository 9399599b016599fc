"""Primality testing and small-prime tables.

Plain-integer utilities with no dependencies on the rest of the package: a
byte sieve of Eratosthenes, and a primality test that takes the cheapest
exact method for the size of n, with the Baillie-PSW probable-prime test
above 2**64:

- n <= 2**16: a lookup in a byte table built once by the sieve;
- n < 2**32: strong tests to bases 2, 7 and 61 (Jaeschke, Math. Comp. 61,
  1993);
- n < 2**64: strong tests to Sinclair's seven bases (verified against the
  Feitsma-Galway strong-pseudoprime tables);
- n >= 2**64: BPSW (Baillie & Wagstaff, Math. Comp. 35, 1980).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

# Strong-test witnesses that decide primality for every n < 4,759,123,141,
# so for every n < 2**32 (Jaeschke, Math. Comp. 61, 1993)
_WITNESSES_U32 = (2, 7, 61)

# Strong-test witnesses that decide primality for every n < 2**64
# (Sinclair's seven-base set, verified against the Feitsma-Galway
# strong-pseudoprime tables).
_WITNESSES_U64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TABLE_LIMIT = 1 << 16  # is_prime looks up every n up to this in _TABLE


def _sieve(limit: int) -> bytearray:
    """A byte sieve of Eratosthenes for limit >= 1: entry i is 1 when i is prime."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return sieve


_TABLE = _sieve(_TABLE_LIMIT)


@lru_cache(maxsize=32)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by a byte sieve of Eratosthenes."""
    if limit < 2:
        return ()
    return tuple(compress(range(limit + 1), _sieve(limit)))


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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 3."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n (Baillie &
    Wagstaff, Math. Comp. 35, 1980).

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = k * 2**s, k odd, n passes when U_k = 0 or
    V_(k * 2**r) = 0 (mod n) for some 0 <= r < s.  A perfect square has no
    such D, so it is rejected first.  A D with (D/n) = 0 shares a factor
    with n, which makes n composite as long as |D| < n: true of every n
    is_prime passes here, all at least 2**64.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    disc = 5
    while (j := _jacobi(disc, n)) != -1:
        if j == 0:
            return False
        disc = -disc - 2 if disc > 0 else -disc + 2
    q = (1 - disc) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # U_m, V_m and Q**m mod n, for m from 1 up the bits of k
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        # U_2m = U_m*V_m and V_2m = V_m**2 - 2*Q**m
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_(m+1) = (U_m + V_m)/2 and V_(m+1) = (D*U_m + V_m)/2; an odd
            # numerator is made even by adding n, so the halving is exact mod n
            u, v = u + v, disc * u + v
            u = (u + n if u & 1 else u) // 2 % n
            v = (v + n if v & 1 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test, exact for all n < 2**64, BPSW probable prime above.

    Each size of n takes the cheapest exact test: up to 2**16 a lookup in
    the sieve's table; below 2**32 strong tests to bases 2, 7 and 61
    (Jaeschke); below 2**64 strong tests to Sinclair's seven bases.  At or
    above 2**64 it runs the Baillie-PSW test: a strong test to base 2, then
    a strong Lucas test with Selfridge's parameters.  BPSW is not a proof,
    but no composite is known to pass it, and unlike any set of fixed bases
    it cannot be defeated by a composite built to pass them.
    """
    if n <= _TABLE_LIMIT:
        # n < 2 first: a negative index would read the table from its end
        return n >= 2 and _TABLE[n] == 1
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False  # n is past the table, so it is not p itself
    if n < 1 << 32:
        return all(_strong_probable_prime(n, a) for a in _WITNESSES_U32)
    if n < 1 << 64:
        return all(_strong_probable_prime(n, a) for a in _WITNESSES_U64)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)
