"""Audit of a candidate factorization against the known necessary
conditions for odd perfect numbers.

Every sub-check runs (no short-circuiting once the parity gate passes), so
a report shows every violated condition at once.  All divisibility and
congruence checks are exact modular arithmetic on the factorization; size
comparisons against 10**300 and 2**(4**r) are decided symbolically from
certified log2 enclosures so the candidate integer is never expanded when
huge.  A check that cannot be decided (precision cap, or an integer too
large to evaluate exactly) reports Undecided, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import prod

from .arith import Factorization, render, sigma, value
from .bounds import (
    Ordering3,
    decide,
    radical_lower_bound,
    prime_sum_lower_bound,
    refined_reciprocal_rhs,
    shares_roots,
)
from .interval import Dyadic, digit_string, to_decimal

_LOG_SCALES = (16, 64, 256, 1024, 4096)
_MATERIALIZE_BITS = 1 << 21
_EXACT_BITS = int(20_000 * 3.322)  # sum(e * bitlen(p)) of about 20000 decimal digits
# r >= need unless one of the small primes divides N:
# (id, small primes, need, detail when one divides N, premise otherwise)
_MIN_DISTINCT_WITHOUT = (
    ("min_distinct_no3", (3,), 12, "3 divides N", "3 does not divide N"),
    ("min_distinct_no3no5", (3, 5), 15, "3 or 5 divides N", "neither 3 nor 5 divides N"),
    ("min_distinct_no357", (3, 5, 7), 27, "3, 5, or 7 divides N", "gcd(N, 105) = 1"),
)


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"
    UNDECIDED = "Undecided"


class Overall(Enum):
    VIABLE = "Viable"
    REFUTED = "Refuted"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class ConstraintVerdict:
    id: str
    verdict: Verdict
    detail: str


@dataclass(frozen=True)
class ConstraintReport:
    candidate: Factorization
    verdicts: tuple[ConstraintVerdict, ...]
    overall: Overall

    def to_json_dict(self) -> dict:
        return {
            "candidate": render(self.candidate),
            "verdicts": [
                {"id": v.id, "verdict": v.verdict.value, "detail": v.detail}
                for v in self.verdicts
            ],
            "overall": self.overall.value,
        }


_LABELS = {
    Verdict.PASS: "PASS",
    Verdict.FAIL: "FAIL",
    Verdict.NOT_APPLICABLE: "N/A",
    Verdict.UNDECIDED: "UNDECIDED",
}


def explain(report: ConstraintReport) -> str:
    """One deterministic line per verdict, then the overall outcome."""
    lines = [
        f"{_LABELS[v.verdict]} {v.id}: {v.detail}" for v in report.verdicts
    ]
    lines.append(f"overall: {report.overall.value}")
    return "\n".join(lines)


def _fmt_int(x: int) -> str:
    """x >= 0 in full up to 40 digits, else its 16 leading digits.

    A long x is never rendered in full: `to_decimal` rounds it down to 16
    significant digits, and its exponent gives the digit count.
    """
    if x < 10**40:
        return str(x)
    text = to_decimal(Dyadic(x), 16, up=False)
    return f"{text} ({int(text.partition('e')[2]) + 1} digits)"


def _fmt_fraction(q: Fraction) -> str:
    """str(q), in full digits at any length."""
    s = ("-" if q < 0 else "") + digit_string(abs(q.numerator))
    return s if q.denominator == 1 else f"{s}/{digit_string(q.denominator)}"


def _log2_bounds(pairs, scale: int) -> tuple[int, int]:
    """Exact window [lo/scale, hi/scale] around log2 of the factored value.

    Per odd prime, bitlen(p**scale) pins log2(p) to within 1/scale, with
    both ends strict; the prime 2 contributes its exponent exactly.  The
    ends are kept as integer numerators over the common denominator scale,
    so windows at one scale compare in integers.
    """
    lo = hi = 0
    for p, e in pairs:
        if p == 2:
            lo += e * scale
            hi += e * scale
            continue
        length = (p**scale).bit_length()
        lo += e * (length - 1)
        hi += e * length
    return lo, hi


def _materialize_bits(pairs) -> int:
    return sum(e * p.bit_length() for p, e in pairs)


def _compare_factored(pairs, target) -> Ordering3:
    """Factored value vs factored target, both as (prime, exponent) pairs:
    BELOW means value < target, ABOVE means value > target.

    Decided from disjoint log2 windows at growing scales, or exactly once
    the value is small enough to materialize.  Callers compare an odd value
    with an even target, so the two never tie.
    """
    for scale in _LOG_SCALES:
        lo, hi = _log2_bounds(pairs, scale)
        target_lo, target_hi = _log2_bounds(target, scale)
        if hi <= target_lo:
            return Ordering3.BELOW
        if lo >= target_hi:
            return Ordering3.ABOVE
        if _materialize_bits(pairs) <= _MATERIALIZE_BITS:
            v = prod(p**e for p, e in pairs)
            return Ordering3.BELOW if v < prod(p**e for p, e in target) else Ordering3.ABOVE
    return Ordering3.UNDECIDED


def _exceeds_ten_to_20(p: int, e: int) -> bool:
    """p**e > 10**20, for p >= 2, decided in integers.

    2**(bitlen(p) - 1) <= p < 2**bitlen(p) and 2**66 < 10**20 < 2**67, so
    e * bitlen(p) <= 66 puts p**e below and e * (bitlen(p) - 1) >= 67
    above; between the two, p**e < 2**(66 + e) <= 2**132 is built.
    """
    length = p.bit_length()
    if e * length <= 66:
        return False
    if e * (length - 1) >= 67:
        return True
    return p**e > 10**20


def _check(cid: str, ok: bool, detail: str) -> ConstraintVerdict:
    return ConstraintVerdict(cid, Verdict.PASS if ok else Verdict.FAIL, detail)


def _na(cid: str, detail: str) -> ConstraintVerdict:
    return ConstraintVerdict(cid, Verdict.NOT_APPLICABLE, detail)


def _euler_form(pairs) -> ConstraintVerdict:
    odd_exp = [(p, e) for p, e in pairs if e % 2 == 1]
    if len(odd_exp) != 1:
        return _check(
            "euler_form",
            False,
            f"{len(odd_exp)} primes carry an odd exponent; "
            "the form P^k * Q^2 requires exactly one",
        )
    p, e = odd_exp[0]
    if p % 4 != 1:
        return _check("euler_form", False, f"special prime {p} = {p % 4} (mod 4), need 1")
    if e % 4 != 1:
        return _check("euler_form", False, f"special exponent {e} = {e % 4} (mod 4), need 1")
    q_pairs = [(q, x // 2) for q, x in pairs if q != p and x >= 2] + (
        [(p, (e - 1) // 2)] if e > 1 else []
    )
    q_pairs.sort()
    q_str = "*".join(f"{q}^{x}" if x > 1 else str(q) for q, x in q_pairs) or "1"
    return _check("euler_form", True, f"P = {p} with exponent {e}; Q = {q_str}")


def _bound_verdict(cid: str, quantity: int, evaluator, r: int, name: str) -> ConstraintVerdict:
    cmp, enclosure = decide(Fraction(quantity), lambda bits: evaluator(r, bits))
    lo_s, hi_s = enclosure.to_decimal_pair(20)
    detail = f"{name} = {_fmt_int(quantity)} vs lower bound in [{lo_s}, {hi_s}]"
    if cmp is Ordering3.ABOVE:
        return _check(cid, True, detail)
    if cmp is Ordering3.BELOW:
        return _check(cid, False, detail)
    return ConstraintVerdict(cid, Verdict.UNDECIDED, detail + f" (undecided at {enclosure.precision_bits}-bit cap)")


@shares_roots
def audit(f: Factorization) -> ConstraintReport:
    """Run the full battery of necessary conditions against a candidate.

    An even candidate (or N = 1) fails the parity gate immediately and is
    reported with that single verdict; otherwise every check runs and every
    verdict is reported.  Both bound verdicts read one enclosure of
    2**(1/r) - 1 per precision level (see `opnkit.bounds`).
    """
    pairs = f.pairs
    if not pairs or pairs[0][0] == 2:
        detail = "N = 1" if not pairs else "N is even"
        verdict = ConstraintVerdict("parity", Verdict.FAIL, f"{detail}; an odd N > 1 is required")
        return ConstraintReport(f, (verdict,), Overall.REFUTED)

    primes = [p for p, _ in pairs]
    exps = [e for _, e in pairs]
    r = len(pairs)
    verdicts = [
        ConstraintVerdict("parity", Verdict.PASS, "N is odd and exceeds 1")
    ]

    verdicts.append(_euler_form(pairs))

    verdicts.append(
        _check(
            "steuerwald",
            any(e != 1 for e in exps),
            "all exponents equal 1" if all(e == 1 for e in exps) else "some exponent exceeds 1",
        )
    )

    m36 = 1
    for p, e in pairs:
        m36 = m36 * pow(p, e, 36) % 36
    verdicts.append(
        _check(
            "touchard",
            m36 % 12 == 1 or m36 == 9,
            f"N = {m36 % 12} (mod 12) and {m36} (mod 36); need 1 (mod 12) or 9 (mod 36)",
        )
    )

    verdicts.append(_check("min_distinct", r >= 9, f"r = {r} {'<' if r < 9 else '>='} 9"))

    for cid, small, need, divides, premise in _MIN_DISTINCT_WITHOUT:
        if any(q in primes for q in small):
            verdicts.append(_na(cid, divides))
        else:
            verdicts.append(_check(cid, r >= need, f"{premise} and r = {r} (need >= {need})"))

    omega = sum(exps)
    verdicts.append(
        _check("hare_omega", omega >= 75, f"Omega(N) = {omega} {'<' if omega < 75 else '>='} 75")
    )

    comparisons = []
    ok = r >= 3
    for offset, (rank, e10) in enumerate((("largest", 8), ("second largest", 4), ("third largest", 2))):
        if offset >= r:
            comparisons.append(f"{rank} prime absent")
            continue
        p = primes[r - 1 - offset]
        ok = ok and p > 10**e10
        comparisons.append(f"{_fmt_int(p)} {'>' if p > 10**e10 else '<='} 10^{e10}")
    verdicts.append(_check("largest_three", ok, "; ".join(comparisons)))

    p1 = primes[0]
    verdicts.append(
        _check(
            "perisastri_smallest",
            3 * p1 <= 2 * r + 9,
            f"3*p_1 = {3 * p1} {'<=' if 3 * p1 <= 2 * r + 9 else '>'} 2r + 9 = {2 * r + 9}",
        )
    )

    if r < 2:
        verdicts.append(_na("kishore", "fewer than two distinct primes"))
    else:
        failures = []
        for i in range(2, min(6, r) + 1):
            limit = (1 << (1 << (i - 1))) * (r - i + 1)
            if primes[i - 1] >= limit:
                failures.append(f"p_{i} = {_fmt_int(primes[i - 1])} >= 2^(2^{i - 1})*(r-{i}+1) = {_fmt_int(limit)}")
        verdicts.append(
            _check(
                "kishore",
                not failures,
                "; ".join(failures) if failures else f"p_i < 2^(2^(i-1))*(r-i+1) for i = 2..{min(6, r)}",
            )
        )

    big = next(((p, e) for p, e in pairs if _exceeds_ten_to_20(p, e)), None)
    if big:
        detail = f"{big[0]}^{big[1]} > 10^20"
    else:
        detail = "no prime-power component exceeds 10^20"
    verdicts.append(_check("cohen_component", bool(big), detail))

    brent = _compare_factored(pairs, ((2, 300), (5, 300)))
    if brent is Ordering3.UNDECIDED:
        verdicts.append(ConstraintVerdict("brent_size", Verdict.UNDECIDED, "N vs 10^300 undecided at the log2 refinement cap"))
    else:
        verdicts.append(
            _check("brent_size", brent is Ordering3.ABOVE, f"N {'>' if brent is Ordering3.ABOVE else '<'} 10^300")
        )

    k = 4**r
    nielsen = _compare_factored(pairs, ((2, k),))
    if nielsen is Ordering3.UNDECIDED:
        verdicts.append(ConstraintVerdict("nielsen_size", Verdict.UNDECIDED, f"N vs 2^(4^{r}) undecided at the log2 refinement cap"))
    else:
        verdicts.append(
            _check(
                "nielsen_size",
                nielsen is Ordering3.BELOW,
                f"N {'<' if nielsen is Ordering3.BELOW else '>='} 2^(4^{r}) = 2^{_fmt_int(k)}",
            )
        )

    rad = prod(primes)
    verdicts.append(_bound_verdict("radical_bound", rad, radical_lower_bound, r, "radical(N)"))
    verdicts.append(_bound_verdict("prime_sum_bound", sum(primes), prime_sum_lower_bound, r, "prime_sum(N)"))

    recip = Fraction(sum(rad // p for p in primes), rad)  # sum(1/p), reduced once
    recip_s = _fmt_fraction(recip)
    verdicts.append(
        _check(
            "reciprocal_sum",
            recip < 1,
            f"sum(1/p) = {recip_s} {'<' if recip < 1 else '>='} 1",
        )
    )

    rhs = refined_reciprocal_rhs(r, primes[-1])
    verdicts.append(
        _check(
            "reciprocal_sum_refined",
            recip < rhs,
            f"sum(1/p) = {recip_s} {'<' if recip < rhs else '>='} refined ceiling {_fmt_fraction(rhs)}",
        )
    )

    exact_bits = _materialize_bits(pairs)
    if exact_bits <= _EXACT_BITS:
        v = value(f)
        s = sigma(f)
        verdicts.append(
            _check(
                "perfect_exact",
                s == 2 * v,
                f"sigma(N) = {_fmt_int(s)} {'=' if s == 2 * v else '!='} 2N = {_fmt_int(2 * v)}",
            )
        )
    else:
        verdicts.append(
            ConstraintVerdict(
                "perfect_exact",
                Verdict.UNDECIDED,
                f"N exceeds the exact-evaluation cap: sum(e*bitlen(p)) = {_fmt_int(exact_bits)} > {_EXACT_BITS} bits",
            )
        )

    outcomes = {v.verdict for v in verdicts}
    if Verdict.FAIL in outcomes:
        overall = Overall.REFUTED
    elif Verdict.UNDECIDED in outcomes:
        overall = Overall.UNDECIDED
    else:
        overall = Overall.VIABLE
    return ConstraintReport(f, tuple(verdicts), overall)
