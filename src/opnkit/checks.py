"""Property checks for the abundancy and symmetric-sum inequalities, plus
seeded randomized and exhaustive verification suites.

Every comparison here is exact, with one exception: the `bounds` suite
compares against the irrational lower bounds of `opnkit.bounds`, which goes
through certified interval refinement under a precision cap.  The GM-HM
steps, though they involve an r-th root, are raised to the r-th power and
decided in integers.  The checks are phrased so that each one is
a falsifiable statement about arbitrary odd integers or odd prime sets:
a single `False` from any of them would be a genuine counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import compress
from math import comb, isqrt, prod

from .arith import Factorization, elementary_symmetric, render, sigma, value
from . import bounds
from .bounds import (
    Ordering3,
    PrecisionExhaustedError,
    compare_rational_to_bound,
    refined_reciprocal_rhs,
    shares_roots,
)
from .primes import is_prime, primes_up_to
from .scan import spf_sieve_odd

SUITES = ("lift", "chain", "gmhm", "bounds", "recip", "recip-refined")
PRIME_SET_MAX_SIZE = 12
PRIME_SET_CAP = 10**4
CHAIN_LIMIT_MAX = 10**8  # memory and walk time grow with the limit; see run_verify_suite


@dataclass(frozen=True)
class PrimeSet:
    """A non-empty, strictly increasing tuple of distinct odd primes (each >= 3)."""

    primes: tuple[int, ...]

    def __post_init__(self):
        primes = tuple(int(p) for p in self.primes)
        object.__setattr__(self, "primes", primes)
        if not primes:
            raise ValueError("empty prime set")
        last = 1
        for p in primes:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if p % 2 == 0:
                raise ValueError("only odd primes are allowed")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    @classmethod
    def _from_checked(cls, primes: tuple[int, ...]) -> "PrimeSet":
        # skips validation: callers must pass a non-empty, strictly increasing
        # tuple of odd ints they already know to be prime
        obj = object.__new__(cls)
        object.__setattr__(obj, "primes", primes)
        return obj

    def __len__(self) -> int:
        return len(self.primes)


def random_prime_set(
    rng: random.Random, max_size: int = PRIME_SET_MAX_SIZE, prime_cap: int = PRIME_SET_CAP
) -> PrimeSet:
    """Uniformly sample r in [1, max_size] distinct odd primes below prime_cap."""
    pool = primes_up_to(prime_cap)[1:]  # the cached sieve, without 2
    r = rng.randint(1, max_size)
    return PrimeSet._from_checked(tuple(sorted(rng.sample(pool, r))))


def check_exponent_lift(b: Factorization, prime_index: int, n: int) -> bool:
    """Raising a unit exponent to n >= 2 must strictly raise the abundancy.

    Returns the truth of sigma(C)/(2C) > sigma(B)/(2B) where C is B with the
    prime at `prime_index` lifted from exponent 1 to exponent n; a theorem
    guarantees True for every valid input.
    """
    if not 0 <= prime_index < len(b.pairs):
        raise ValueError("prime_index out of range")
    p, e = b.pairs[prime_index]
    if e != 1:
        raise ValueError(f"prime {p} has exponent {e}; the lift starts from 1")
    if n < 2:
        raise ValueError("the lifted exponent must be >= 2")
    lifted = list(b.pairs)
    lifted[prime_index] = (p, n)
    c = Factorization._from_checked(lifted)
    return sigma(c) * value(b) > sigma(b) * value(c)


def _chain_step_holds(p: int, e: int) -> bool:
    """Restoring p**e (e >= 2) raises the abundancy: sigma(p**e) > (p + 1) * p**(e - 1)."""
    return (p ** (e + 1) - 1) // (p - 1) > (p + 1) * p ** (e - 1)


def check_gm_hm_step(ps: PrimeSet, k: int) -> bool:
    """Strict inequality S_k > C(r,k) * radical**(-k/r) for the k-th
    reciprocal symmetric sum of the prime set.

    Both sides are positive, so raising them to the r-th power decides the
    step exactly in integers: with S_k = e_{r-k} / e_r and radical = e_r it
    reads e_{r-k}**r > C(r,k)**r * e_r**(r-k).  Expected True for k < r.
    k = r is the exact-equality degenerate case (both sides are 1/radical,
    and the test reads 1 > 1), so the strict form returns False there.
    """
    r = len(ps)
    if not 1 <= k <= r:
        raise ValueError("need 1 <= k <= r")
    coeffs = elementary_symmetric(ps.primes)
    return coeffs[r - k] ** r > comb(r, k) ** r * coeffs[r] ** (r - k)


def _radical_abundancy_below_one(primes) -> bool:
    return prod(p + 1 for p in primes) < 2 * prod(primes)


@shares_roots
def check_bound_implication(ps: PrimeSet) -> bool:
    """If the radical of the prime set has abundancy < 1 (exact test), its
    product and sum must clear the certified lower bounds for its size.

    Vacuously true when the premise fails; raises if an interval decision
    hits the precision cap.  Both comparisons read one enclosure of the
    root of two.
    """
    primes = ps.primes
    if not _radical_abundancy_below_one(primes):
        return True
    r = len(primes)
    product_cmp = compare_rational_to_bound(Fraction(prod(primes)), "radical", r)
    sum_cmp = compare_rational_to_bound(Fraction(sum(primes)), "prime_sum", r)
    if Ordering3.UNDECIDED in (product_cmp, sum_cmp):
        raise PrecisionExhaustedError(f"bound comparison at {bounds.PRECISION_CAP_BITS} bits")
    return product_cmp is Ordering3.ABOVE and sum_cmp is Ordering3.ABOVE


def check_reciprocal_implication(ps: PrimeSet) -> bool:
    """If the radical's abundancy is < 1, the prime reciprocals sum below 1.

    Decided in integers over the common denominator rad = prod(primes), as
    sum(rad / p) < rad; vacuously true when the premise fails.
    """
    primes = ps.primes
    if not _radical_abundancy_below_one(primes):
        return True
    rad = prod(primes)
    return sum(rad // p for p in primes) < rad


def check_refined_reciprocal_implication(ps: PrimeSet) -> bool:
    """Refined reciprocal ceiling: sum_{k>=2} S_k >= 1 - c, where
    c = 1 - ((1 + 1/P)**r - (1 + r/P)) and P is the largest prime.

    This settles the ceiling sum(1/p) = S_1 < c whenever the radical's
    abundancy is < 1, so that is not tested apart: the premise reads
    prod(1 + 1/p) < 2, i.e. sum_{k>=1} S_k < 1, and subtracting
    sum_{k>=2} S_k >= 1 - c leaves S_1 < c.

    Decided in integers: with S_k = e_{r-k} / e_r over the elementary
    symmetric sums e_j of the primes and c = num / den (den > 0), it reads
    sum_{j <= r-2} e_j * den >= (den - num) * e_r.
    """
    primes = ps.primes
    r = len(primes)
    coeffs = elementary_symmetric(primes)
    ceiling = refined_reciprocal_rhs(r, primes[-1])
    num, den = ceiling.numerator, ceiling.denominator
    return sum(coeffs[: r - 1]) * den >= (den - num) * coeffs[r]


# the suites that make one check per random prime set
_PRIME_SET_CHECKS = {
    "bounds": check_bound_implication,
    "recip": check_reciprocal_implication,
    "recip-refined": check_refined_reciprocal_implication,
}


@dataclass
class SuiteResult:
    suite: str
    checked: int
    violations: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "violations": list(self.violations),
            "passed": self.passed,
            "params": self.params,
        }


def _random_lift_case(rng: random.Random, pool):
    size = rng.randint(1, 5)
    primes = sorted(rng.sample(pool, size))
    exps = [rng.randint(1, 9) for _ in primes]
    star = rng.randrange(size)
    exps[star] = 1
    n = rng.randint(2, 9)
    # the pool is the sieve's, so the primes are not tested again
    return Factorization._from_checked(zip(primes, exps)), star, n


@shares_roots
def run_verify_suite(
    suite: str,
    *,
    trials: int = 10_000,
    seed: int = 0,
    limit: int = 100_000,
) -> SuiteResult:
    """Run one named verification suite; seeded, deterministic, exhaustive
    where the suite is defined that way.
    The prime-set suites draw each trial's set from `random_prime_set` at its
    defaults: up to PRIME_SET_MAX_SIZE primes below PRIME_SET_CAP.

    `chain` counts every odd n <= limit as checked and walks those with an
    odd square factor (a squarefree n has a constant chain).  Restoring
    p**e (e >= 2) multiplies v by p**(e - 1) and swaps the factor p + 1 of
    s = sigma(v) for sigma(p**e); every other prime of n puts the same
    positive factor on both sides of s_next*v > s*v_next, so the step holds
    iff sigma(p**e) > (p + 1) * p**(e - 1) whatever the rest of n, and each
    (p, e) is decided once (218 steps for the 95 thousand n walked at
    10**6).  `limit` is at most CHAIN_LIMIT_MAX = 10**8, checked before
    anything is allocated: the spf table over the odd n takes 2 bytes per
    n and the square-factor mark half a byte.  On 2 vCPUs the suite takes
    1.2-1.3 s at 10**7 and 13.6-14.4 s, with 266 MB peak RSS, at the
    ceiling (three runs).

    The `bounds` suite is the only one that refines intervals, each up to
    `bounds.decide`'s fixed cap; a decision the cap leaves open raises
    PrecisionExhaustedError.  The call opens one store of roots of two
    (see `opnkit.bounds`), so it encloses 2**(1/r) - 1 once per distinct
    (r, working bits) over all its trials, and a refinement continues
    Newton from the level below; the store is dropped when the call
    returns, so nothing is cached across calls.  Every other suite, `gmhm`
    included, is decided exactly in integers.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    rng = random.Random(seed)
    violations: list[str] = []
    checked = 0

    if suite == "lift":
        pool = list(primes_up_to(1000))
        for _ in range(trials):
            b, star, n = _random_lift_case(rng, pool)
            checked += 1
            if not check_exponent_lift(b, star, n):
                violations.append(f"B={render(b)} index={star} n={n}")
        params = {"trials": trials, "seed": seed}
    elif suite == "chain":
        if limit > CHAIN_LIMIT_MAX:
            raise ValueError(f"the chain suite's limit is at most {CHAIN_LIMIT_MAX}, got {limit}")
        spf = spf_sieve_odd(max(limit, 9))
        odd = range(3, limit + 1, 2)
        checked = len(odd)
        square_factor = bytearray(len(odd))  # index i stands for n = 3 + 2*i
        for p in primes_up_to(isqrt(max(limit, 0)))[1:]:
            # the odd multiples p*p, 3*p*p, 5*p*p, ... lie p*p indices apart
            square_factor[(p * p - 3) // 2 :: p * p] = b"\x01" * len(range(p * p, limit + 1, 2 * p * p))
        step = cache(_chain_step_holds)  # each (p, e) is decided once, and only for this call
        for n in compress(odd, square_factor):
            m = n
            while m > 1:  # factor n from the spf table
                p = spf[m >> 1] or m
                m, e = m // p, 1
                while m % p == 0:
                    m, e = m // p, e + 1
                if e > 1 and not step(p, e):
                    violations.append(f"n={n}")
                    break
        params = {"limit": limit}
    else:
        for _ in range(trials):
            ps = random_prime_set(rng)
            if suite == "gmhm":
                for k in range(1, len(ps)):
                    checked += 1
                    if not check_gm_hm_step(ps, k):
                        violations.append(f"primes={ps.primes} k={k}")
            else:
                checked += 1
                if not _PRIME_SET_CHECKS[suite](ps):
                    violations.append(f"primes={ps.primes}")
        params = {"trials": trials, "seed": seed, "prime_cap": PRIME_SET_CAP, "max_size": PRIME_SET_MAX_SIZE}

    return SuiteResult(suite=suite, checked=checked, violations=violations, params=params)
