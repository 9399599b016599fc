"""Differential tests against sympy, an oracle that shares no code with
opnkit.  Skipped where sympy is not installed; it is not a dependency."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from opnkit.arith import Factorization, sigma  # noqa: E402
from opnkit.primes import is_prime  # noqa: E402
from opnkit.scan import sigma_segment, spf_sieve_odd  # noqa: E402
from test_scan import factor_from_spf  # noqa: E402


@pytest.mark.parametrize(
    "centre",
    [2**20, 2**30, 3 * 2**29, 10**9 - 200],
    ids=["2^20", "2^30", "3*2^29", "1e9"],
)
def test_sigma_segment_matches_sympy(centre):
    a, b = centre - 200, centre + 200
    got = sigma_segment(a, b).tolist()
    assert got == [int(sympy.divisor_sigma(n)) for n in range(a, b + 1)]


def test_sigma_segment_matches_sympy_at_1e12():
    a, b = 10**12 - 99, 10**12
    got = sigma_segment(a, b)
    for n in random.Random(1012).sample(range(a, b + 1), 25) + [a, b]:
        assert int(got[n - a]) == int(sympy.divisor_sigma(n)), n


def test_sigma_matches_sympy():
    rng = random.Random(4)
    ns = [rng.randrange(2, 10**k) for k in (3, 6, 9, 12, 15, 18) for _ in range(25)]
    for n in ns:
        f = Factorization(tuple(sorted(sympy.factorint(n).items())))
        assert sigma(f) == int(sympy.divisor_sigma(n)), n


def test_spf_factorization_matches_sympy():
    limit = 10**5 + 1
    spf = spf_sieve_odd(limit)
    for n in random.Random(5).sample(range(3, limit + 1, 2), 300) + [limit]:
        assert factor_from_spf(n, spf) == sorted(sympy.factorint(n).items()), n


def test_is_prime_matches_sympy_above_2_64():
    rng = random.Random(64)
    odd = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for bits in (rng.randrange(65, 2001) for _ in range(100))]
    primes = [int(sympy.nextprime(rng.getrandbits(bits))) for bits in (33, 48, 64, 65, 100, 250, 500, 1000)]
    # two primes, either from the list or q = k(p - 1) + 1, the shape of a
    # Fermat liar's factors
    products = [p * q for p in primes for q in primes if p <= q]
    for p in primes[:6]:
        k = next(k for k in range(2, 10**4, 2) if sympy.isprime(k * (p - 1) + 1))
        products.append(p * (k * (p - 1) + 1))
    for n in odd + primes + products:
        if n >= 1 << 64:
            assert is_prime(n) == sympy.isprime(n), n
