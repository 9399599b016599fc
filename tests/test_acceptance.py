"""Acceptance suite: every exit criterion, one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; the whole module takes a few minutes, dominated by the three
full scans of [2, 10**8].
"""

import random
import sys
from fractions import Fraction

import mpmath
import numpy as np

from opnkit.arith import Factorization, parse_factorization, sigma
from opnkit.bounds import (
    prime_sum_lower_bound,
    radical_lower_bound,
    refined_reciprocal_rhs,
)
from opnkit.interval import nth_root_enclosure
from opnkit.checks import run_verify_suite
from opnkit.constraints import Overall, Verdict, audit
from opnkit.scan import scan_perfect
from trial_division import trial_factor

SEED = 20260809


def report(name: str, ok: bool, note: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    print(line, file=sys.stderr, flush=True)
    assert ok, name


def width(iv) -> Fraction:
    return iv.hi.as_fraction() - iv.lo.as_fraction()


def test_sigma_oracle_equivalence():
    """sigma of n's factorization equals brute-force divisor summation for n <= 10**5."""
    limit = 10**5
    # independent oracle: every d adds itself to all of its multiples
    table = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        table[d::d] += d
    ok = all(sigma(Factorization(trial_factor(n))) == int(table[n]) for n in range(1, limit + 1))
    report("sigma-oracle-equivalence", ok, f"n <= {limit}, exact")


def test_perfect_number_scan_deterministic():
    """[2, 10**8] holds exactly the five classical perfect numbers, for 1/4/8 workers."""
    expected = [6, 28, 496, 8128, 33550336]
    reports = [scan_perfect(2, 10**8, "all", jobs=j) for j in (1, 4, 8)]
    found = [[n for n, _ in rep.violations] for rep in reports]
    ok = (
        all(f == expected for f in found)
        and all(n % 2 == 0 for n in found[0])
        and reports[0].violations == reports[1].violations == reports[2].violations
        and len({rep.tested_count for rep in reports}) == 1
    )
    report("perfect-number-scan", ok, "jobs 1/4/8 identical, all even")


def test_chain_exhaustive_to_1e6():
    """The radical-to-N abundancy chain holds for every odd n <= 10**6."""
    result = run_verify_suite("chain", limit=10**6)
    report(
        "abundancy-chain-exhaustive",
        result.passed and result.checked == len(range(3, 10**6 + 1, 2)),
        f"{result.checked} odd integers, 0 violations",
    )


def test_exponent_lift_randomized():
    """10**4 seeded random lift instances, exact rational comparison."""
    result = run_verify_suite("lift", trials=10**4, seed=SEED)
    report("exponent-lift", result.passed, f"{result.checked} trials, 0 violations")


def test_gm_hm_steps():
    """All 1 <= k < r over 10**3 seeded random odd prime sets resolve, and hold."""
    result = run_verify_suite("gmhm", trials=10**3, seed=SEED)
    # each step is decided exactly in integers, so every pair resolves
    report("gm-hm-steps", result.passed, f"{result.checked} (set, k) pairs decided exactly")


def test_bound_implication():
    """Product/sum lower-bound implication over 10**4 seeded prime sets."""
    result = run_verify_suite("bounds", trials=10**4, seed=SEED)
    report("bound-implication", result.passed, f"{result.checked} prime sets")


def test_reciprocal_implications():
    """Reciprocal-sum implications over 10**4 seeded sets, fully exact."""
    plain = run_verify_suite("recip", trials=10**4, seed=SEED)
    refined = run_verify_suite("recip-refined", trials=10**4, seed=SEED)
    # refined ceiling < 1 for r >= 2, so a refined pass forces the plain one
    rng = random.Random(SEED)
    from opnkit.checks import random_prime_set

    implication_ok = True
    for _ in range(10**3):
        ps = random_prime_set(rng)
        r = len(ps.primes)
        if r < 2:
            continue
        rhs = refined_reciprocal_rhs(r, ps.primes[-1])
        recip = sum(Fraction(1, p) for p in ps.primes)
        if rhs < 1 and recip < rhs and not recip < 1:
            implication_ok = False
    ok = plain.passed and refined.passed and implication_ok
    report("reciprocal-implications", ok, f"{plain.checked}+{refined.checked} sets")


def test_bound_values_algebraic_and_oracle():
    """r=2 bounds bracket 3+2*sqrt(2) and 2+2*sqrt(2) within 1e-15 at 64 bits;
    r=9 bound matches an independent doubled-precision oracle to 30+ digits."""
    a2 = radical_lower_bound(2, 64)
    b2 = prime_sum_lower_bound(2, 64)

    def brackets(iv, offset):  # offset + 2*sqrt(2), exactly, via squaring
        lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
        return ((lo - offset) / 2) ** 2 < 2 < ((hi - offset) / 2) ** 2

    tight = Fraction(1, 10**15)
    ok = (
        brackets(a2, 3)
        and brackets(b2, 2)
        and width(a2) <= tight
        and width(b2) <= tight
    )

    a9 = radical_lower_bound(9, 128)
    with mpmath.workprec(2 * 128 + 64):
        x = 1 / (mpmath.root(2, 9) - 1) ** 9
    sign, man, exp, _ = x._mpf_
    oracle = Fraction(man) * Fraction(2) ** exp
    mid = (a9.lo.as_fraction() + a9.hi.as_fraction()) / 2
    ok = ok and abs(oracle - mid) / mid < Fraction(1, 10**30)
    ok = ok and a9.lo.as_fraction() < oracle < a9.hi.as_fraction()
    report("bound-values", ok, "algebraic r=2 oracles and 30-digit r=9 oracle")


def test_refined_rhs_exact_value():
    """1 - ((1+1/7)**3 - (1+3/7)) == 321/343, by independent exact arithmetic."""
    oracle = 1 - (Fraction(8, 7) ** 3 - Fraction(10, 7))
    got = refined_reciprocal_rhs(3, 7)
    report("refined-ceiling-value", got == oracle == Fraction(321, 343), f"{got}")


def test_interval_contract_random():
    """10**3 random evaluations: doubled-precision recomputation stays inside,
    and width at least halves when precision doubles."""
    rng = random.Random(SEED)

    def root_of_two(r, bits):
        return nth_root_enclosure(2, r, bits)

    evaluators = [radical_lower_bound, prime_sum_lower_bound, root_of_two]
    ok = True
    for _ in range(10**3):
        r = rng.randint(1, 10**4)
        p = rng.choice([64, 128, 256])
        fn = rng.choice(evaluators)
        wide = fn(r, p)
        narrow = fn(r, 2 * p)
        mid = (narrow.lo.as_fraction() + narrow.hi.as_fraction()) / 2
        if not wide.lo.as_fraction() <= mid <= wide.hi.as_fraction():
            ok = False
            break
        w_wide, w_narrow = width(wide), width(narrow)
        if r == 1 and fn is not root_of_two:  # both bounds are exact points at r = 1
            if not (w_wide == w_narrow == 0):
                ok = False
                break
        elif not w_narrow <= w_wide / 2:
            ok = False
            break
    report("interval-contract", ok, "10^3 evaluations, r <= 10^4, 64/128/256 bits")


def test_constraint_battery():
    """The worked 2205 audit, plus: every even candidate and every candidate
    below 10**300 is refuted."""
    rep = audit(parse_factorization("3^2*5*7^2"))
    verdicts = {v.id: v.verdict for v in rep.verdicts}
    ok = (
        verdicts["euler_form"] is Verdict.PASS
        and verdicts["touchard"] is Verdict.PASS
        and verdicts["min_distinct"] is Verdict.FAIL
        and rep.overall is Overall.REFUTED
    )
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        if audit(Factorization(trial_factor(n))).overall is not Overall.REFUTED:
            ok = False
            break
    # even candidates die at the parity gate
    for n in (28, 2**10, 6):
        if audit(Factorization(trial_factor(n))).overall is not Overall.REFUTED:
            ok = False
    report("constraint-battery", ok, "2205 worked example + random small candidates")
