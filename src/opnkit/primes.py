"""Primality testing and deterministic integer factorization.

Plain-integer utilities with no dependencies on the rest of the package:
a Miller-Rabin test that is deterministic below 2**64, trial division
plus Brent's variant of Pollard's rho above the trial range, and exact
integer k-th roots.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Strong-test witnesses that decide primality for every n < 2**64
# (Sinclair's seven-base set, verified against the Feitsma-Galway
# strong-pseudoprime tables).
_WITNESSES_U64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1 << 12


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


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0:
        raise ValueError("iroot of a negative number")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if k == 1 or n < 2:
        return n
    if k >= n.bit_length():
        return 1
    # start at 2**ceil(bits/k), always above the root; the iteration then
    # decreases monotonically until it crosses it
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _as_perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with base**k == n and k prime, or None."""
    for k in primes_up_to(n.bit_length()):
        r = iroot(n, k)
        if r ** k == n:
            return r, k
    return None


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n with no factor < _TRIAL_LIMIT.

    Brent's cycle-finding variant; the polynomial offset c walks 1, 2, 3, ...
    so repeated calls on the same n always behave identically.
    """
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r <<= 1
        if g == n:
            # backtrack one step at a time from the last checkpoint
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


def factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.

    Trial division by primes below 2**12, then perfect-power reduction and
    Pollard-rho splitting.  Fully deterministic; intended for n < 2**64 but
    correct (merely slower) beyond.
    """
    if n < 1:
        raise ValueError("factor_pairs requires n >= 1")
    counts: dict[int, int] = {}
    for p in primes_up_to(_TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, mult = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + mult
            continue
        power = _as_perfect_power(m)
        if power is not None:
            base, k = power
            stack.append((base, mult * k))
            continue
        d = _pollard_brent(m)
        stack.append((d, mult))
        stack.append((m // d, mult))
    return tuple(sorted(counts.items()))
