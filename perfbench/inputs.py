"""Seeded inputs for the benchmark's four operation families.

Every generator draws from its own ``random.Random`` keyed by the family and
the run seed, so one seed always gives the same inputs.  Work per pass is
kept nearly independent of the seed: sizes come from fixed strata (number of
primes, digit counts, precision targets, window lengths) and the seed only
picks the concrete values inside each stratum.  That keeps run-to-run spread
down to the program's own noise.

Every run measures all four families.  ``full`` is the size of a pass of
the workload's own family and of the in-process ``audit`` and ``refine``
families; ``probe`` is the smaller slice of ``cli`` or ``scan`` that the other
workload runs; ``warm`` is the set-up pass.
"""

from __future__ import annotations

import math
import random

SEGMENT = 1 << 21  # the scan layer's sieve segment length

# Candidates whose N has between 4300 and 20000 decimal digits.  The audit
# renders sigma(N) with str(), which Python refuses above 4300 digits, so
# every audit of these raises today.  They do not depend on the seed.
FAILING_CANDIDATES = (
    "3^10001*5^2*7^2",
    "3^2*5^2*13^9001",
    "3^2*5^2*7^2*11^2*17^13001",
)
# the error each of them raises, as the worker records it; any other error
# from them is a fault of its own
FAILING_ERROR = "ValueError: Exceeds the limit (4300 digits) for integer string conversion"

_SMALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24 (far above any input)."""
    if n < 2:
        return False
    for p in _SMALL_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(3, limit, 2) if sieve[p]]


_POOL_SMALL = odd_primes_below(2_000)
_POOL_MEDIUM = odd_primes_below(5_000)
_POOL_WIDE = odd_primes_below(100_000)


def _prime_near(rng: random.Random, lo: int, hi: int) -> int:
    n = rng.randrange(lo, hi) | 1
    while not is_prime(n):
        n += 2
    return n


def _digits(pairs) -> float:
    return sum(e * math.log10(p) for p, e in pairs)


def _render(rng: random.Random, pairs) -> str:
    """A candidate string: shuffled terms, sometimes spaced, sometimes split."""
    terms = []
    for p, e in pairs:
        if e >= 4 and rng.random() < 0.15:
            terms += [f"{p}^{e - 2}", f"{p}^2"]  # the parser merges repeats
        elif e == 1:
            terms.append(f"{p}^1" if rng.random() < 0.1 else str(p))
        else:
            terms.append(f"{p}^{e}")
    rng.shuffle(terms)
    return (" * " if rng.random() < 0.2 else "*").join(terms)


def _pick_primes(rng: random.Random, r: int, pool: list[int], wide_top: bool) -> list[int]:
    chosen = set()
    for q, prob in ((3, 0.7), (5, 0.6), (7, 0.5)):
        if len(chosen) < r and rng.random() < prob:
            chosen.add(q)
    if wide_top and r >= 3:
        # the largest_three check wants p_r > 10^8, p_(r-1) > 10^4, p_(r-2) > 100
        chosen.add(_prime_near(rng, 10**8, 10**9))
        chosen.add(_prime_near(rng, 10**4, 10**5))
    while len(chosen) < r:
        chosen.add(rng.choice(pool))
    return sorted(chosen)


def _candidate(rng: random.Random, r: int, style: str) -> str:
    pool = _POOL_MEDIUM if r > 300 else (_POOL_WIDE if r > 60 else _POOL_SMALL)
    while True:
        primes = _pick_primes(rng, r, pool, wide_top=r <= 100 and rng.random() < 0.3)
        if style == "random":
            pairs = [(p, rng.randint(1, 6 if r < 300 else 2)) for p in primes]
        else:
            # Euler's form: one special prime = 1 (mod 4) with exponent = 1
            # (mod 4), every other exponent even
            specials = [p for p in primes if p % 4 == 1] or [primes[-1]]
            special = rng.choice(specials)
            pairs = [
                (p, rng.choice((1, 5)) if p == special else rng.choice((2, 2, 2, 4, 6)))
                for p in primes
            ]
            if r > 300:
                pairs = [(p, 1 if p == special else 2) for p in primes]
            if style == "astro":
                i = rng.randrange(len(pairs))
                p, _ = pairs[i]
                if p == special:
                    pairs[i] = (p, 4 * rng.randint(40_000, 60_000) + 1)
                else:
                    pairs[i] = (p, 2 * rng.randint(100_000, 150_000))
        digits = _digits(pairs)
        # every seeded candidate must avoid the 4300..20000-digit window
        if digits < 4_200 or digits > 20_100:
            return _render(rng, pairs)


# (r, style, count): fixed strata, so each seed costs about the same
_AUDIT_STRATA = (
    (3, "euler", 3), (3, "random", 2),
    (5, "euler", 3), (5, "random", 2),
    (9, "euler", 4), (9, "random", 2),
    (12, "euler", 3), (12, "random", 2),
    (15, "euler", 3), (15, "random", 2),
    (27, "euler", 3), (27, "random", 1),
    (40, "euler", 2),
    (100, "euler", 3), (100, "random", 2),
    (600, "euler", 2), (600, "random", 1),
    (9, "astro", 2), (27, "astro", 2),
)

# run_verify_suite calls per audit pass: (suite, trials); the suites' own
# seed is fixed so their cost does not move with the run seed
AUDIT_SUITES = (("lift", 200), ("gmhm", 60), ("bounds", 150), ("recip", 200), ("recip-refined", 200))
SUITE_SEED = 20100806


def audit_inputs(seed: int, scale: str) -> dict:
    rng = random.Random(f"audit:{seed}")
    candidates = [_candidate(rng, r, style) for r, style, count in _AUDIT_STRATA for _ in range(count)]
    candidates += [f"2^{rng.randint(1, 6)}*{rng.choice(_POOL_SMALL)}^2", "1"]  # parity gate
    if scale == "warm":
        return {"candidates": candidates[:4], "suites": [(s, 5) for s, _ in AUDIT_SUITES]}
    candidates += FAILING_CANDIDATES
    rng.shuffle(candidates)
    return {"candidates": candidates, "suites": [list(s) for s in AUDIT_SUITES]}


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi + 0.5)))))


# bound tables: (r stratum, significant digits); strata are disjoint, so the
# r values of one pass are distinct.  Tables stop at r = 7000: above about
# r = 7140 the table's upper bound 4^r has more than 4300 digits and its JSON
# rendering raises.
_TABLE_STRATA = (
    ((2, 3), 500), ((6, 9), 4000), ((40, 60), 2000), ((200, 300), 1000),
    ((700, 1000), 4000), ((1700, 2500), 500), ((3200, 4500), 2000), ((6100, 7000), 1000),
)
# near-tie decisions: (r stratum, kind, k); each gives one rational 2^-k
# below and one 2^-k above the bound, relative to its value.  Strata are
# narrow (r varies by less than 2x) so the cost of a pass barely moves with
# the seed.
_DECISION_STRATA = (
    ((6, 9), "radical", 16000), ((6, 9), "prime_sum", 1024),
    ((60, 100), "radical", 4096), ((60, 100), "prime_sum", 16000),
    ((600, 1000), "radical", 1024), ((600, 1000), "prime_sum", 4096),
    ((2000, 3000), "radical", 16000), ((2000, 3000), "prime_sum", 128),
    ((4500, 6000), "radical", 128), ((4500, 6000), "prime_sum", 16000),
    ((8000, 10000), "radical", 4096), ((8000, 10000), "prime_sum", 128),
)


def digits_to_bits(digits: int) -> int:
    """The precision `opnkit bounds --digits` asks for (cli._digits_to_bits)."""
    return math.ceil(digits * math.log2(10)) + 8


def refine_inputs(seed: int, scale: str) -> dict:
    rng = random.Random(f"refine:{seed}")
    tables = [(_log_uniform(rng, lo, hi), digits) for (lo, hi), digits in _TABLE_STRATA]
    decisions = [(_log_uniform(rng, lo, hi), kind, k) for (lo, hi), kind, k in _DECISION_STRATA]
    if scale == "warm":
        tables = [(r, 50) for r, _ in tables[:2]]
        decisions = [(r, kind, 64) for r, kind, _ in decisions[:2]]
    return {"tables": [[r, d, digits_to_bits(d)] for r, d in tables], "decisions": [list(d) for d in decisions]}


_SCAN_SIZES = {
    # perfect-scan span from 2, window length at 10^9, chain window at 10^8,
    # chain-suite limit, checkpointed span from 2
    "full": (1 << 25, 1 << 23, 1 << 22, 10**6, 1 << 23),
    "probe": (SEGMENT, SEGMENT // 2, SEGMENT // 2, 5 * 10**4, SEGMENT // 2),
    "warm": (1 << 16, 1 << 16, 1 << 16, 10**4, 1 << 17),
}


def scan_inputs(seed: int, scale: str) -> dict:
    rng = random.Random(f"scan:{seed}")
    low_span, window, chain_window, chain_limit, ckpt_span = _SCAN_SIZES[scale]
    win_hi = 10**9 - rng.randrange(0, 10**7)
    chain_lo = (10**8 + rng.randrange(0, 10**7)) | 1
    spot_lo = 10**9 - (1 << 16) - rng.randrange(0, 10**7)
    full_window = _SCAN_SIZES["full"][1]
    return {
        "perfect_low": [2, 1 + low_span],
        "window": [win_hi - window + 1, win_hi],
        # the jobs=2 reference of a traced run always takes the full window
        "jobs2_window": [win_hi - full_window + 1, win_hi],
        "chain_window": [chain_lo, chain_lo + chain_window - 1],
        "chain_limit": chain_limit,
        "checkpoint": [2, 1 + ckpt_span],
        # sigma_segment spot checks (verification only, never timed)
        "sigma_spot": [spot_lo, spot_lo + (1 << 16) - 1, sorted(rng.sample(range(1 << 16), 48))],
    }


def _sk_factorization(rng: random.Random) -> str:
    primes = sorted(rng.sample(_POOL_SMALL[:150], 10))
    return "*".join(f"{p}^{rng.choice((1, 2, 3))}" for p in primes)


def cli_inputs(seed: int, scale: str) -> dict:
    rng = random.Random(f"cli:{seed}")
    small = _candidate(rng, 9, "euler")
    large = _candidate(rng, 600, "euler")
    sk = _sk_factorization(rng)
    commands = {
        "check_small": ["check", small, "--format", "json"],
        "check_large": ["check", large, "--format", "json"],
        "bounds": ["bounds", "-r", "9", "--digits", "50", "--format", "json"],
        "sk": ["sk", sk, "--format", "json"],
        "verify": ["verify", "gmhm", "--trials", "20", "--seed", str(seed), "--format", "json"],
        "chain": ["verify", "chain", "--limit", "100000", "--format", "json"],
        "scan": ["scan", "--lo", "2", "--hi", "1000000", "--jobs", "1", "--format", "json"],
    }
    # a probe pass runs the three light commands
    rotation = {"full": list(commands), "probe": ["check_small", "sk", "bounds"], "warm": ["check_small"]}[scale]
    return {"commands": commands, "rotation": rotation}


GENERATORS = {"cli": cli_inputs, "audit": audit_inputs, "refine": refine_inputs, "scan": scan_inputs}
FAMILIES = tuple(GENERATORS)
WORKLOADS = ("cli", "scan")


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs for one run: the workload's own family, audit and refine at
    full scale, the other of cli and scan at probe scale, and a warm-up set
    for each."""
    scales = {f: "full" if f in (workload, "audit", "refine") else "probe" for f in FAMILIES}
    return {
        family: {"timed": gen(seed, scales[family]), "warm": gen(seed, "warm")}
        for family, gen in GENERATORS.items()
    }
