"""Independent expectations for every output the benchmark checks.

Nothing here imports opnkit or copies its output.  Audit verdicts are
recomputed from the candidate string with plain integers, ``Fraction`` and
mpmath; bound values come from mpmath at a higher precision than the
program used; scan results come from the known perfect numbers, exact
counting and ``sympy.divisor_sigma`` (brute-force divisor sums when sympy is
missing).  All of it runs in run.py, outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

import mpmath

from inputs import digits_to_bits, is_prime

PERFECT_NUMBERS = (6, 28, 496, 8128, 33550336, 8589869056, 137438691328)

VERDICT_IDS = (
    "parity", "euler_form", "steuerwald", "touchard", "min_distinct", "min_distinct_no3",
    "min_distinct_no3no5", "min_distinct_no357", "hare_omega", "largest_three",
    "perisastri_smallest", "kishore", "cohen_component", "brent_size", "nielsen_size",
    "radical_bound", "prime_sum_bound", "reciprocal_sum", "reciprocal_sum_refined", "perfect_exact",
)
EXIT_CODES = {"Viable": 0, "Refuted": 1, "Undecided": 3}
# the audit evaluates sigma(N) exactly when sum(e * bitlen(p)) stays within
# its documented 20000-digit cap; above it perfect_exact is Undecided
EXACT_BITS_CAP = int(20_000 * 3.322)

_TERM = re.compile(r"\s*(\d+)\s*(?:\^\s*(\d+)\s*)?$")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_canonical(text: str) -> bool:
    """Parses as JSON and re-dumps to exactly the same bytes."""
    try:
        return canonical(json.loads(text)) == text
    except ValueError:
        return False


def parse_candidate(text: str) -> list[tuple[int, int]]:
    if text.strip() == "1":
        return []
    counts: dict[int, int] = {}
    for term in text.split("*"):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"bad term {term!r}")
        p, e = int(m.group(1)), int(m.group(2) or 1)
        counts[p] = counts.get(p, 0) + e
    for p in counts:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return sorted(counts.items())


def render(pairs) -> str:
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in pairs) or "1"


def _geometric_sum(p: int, e: int) -> int:
    """1 + p + ... + p^e, summed term by term."""
    acc = 1
    for _ in range(e):
        acc = acc * p + 1
    return acc


def _log_n(pairs, base) -> mpmath.mpf:
    with mpmath.workprec(256):
        return mpmath.fsum(e * mpmath.log(p, base) for p, e in pairs)


def bound_value(kind: str, r: int, bits: int) -> mpmath.mpf:
    """radical: (2^(1/r) - 1)^-r; prime_sum: r / (2^(1/r) - 1); relative
    error below 2^-(bits + 16)."""
    with mpmath.workprec(bits + 2 * r.bit_length() + 48):
        d = mpmath.expm1(mpmath.log(2) / r)
        value = d ** (-r) if kind == "radical" else r / d
        return +value


def _exceeds_bound(x: int, kind: str, r: int) -> bool:
    if r == 1:
        return x > 1
    with mpmath.workprec(512 + r.bit_length()):
        diff = mpmath.log(x) - mpmath.log(bound_value(kind, r, 512))
        if abs(diff) < mpmath.mpf(2) ** -200:
            raise ValueError("bound comparison too close for the oracle")
        return diff > 0


def audit_expectation(text: str) -> dict:
    """Verdict per check and overall outcome, from the candidate alone."""
    pairs = parse_candidate(text)
    exp = {"candidate": render(pairs)}
    if not pairs or pairs[0][0] == 2:
        exp.update(verdicts={"parity": "Fail"}, overall="Refuted", exit=1, facts={})
        return exp
    primes = [p for p, _ in pairs]
    r = len(pairs)
    omega = sum(e for _, e in pairs)
    m36 = 1
    for p, e in pairs:
        m36 = m36 * pow(p, e, 36) % 36
    recip = sum((Fraction(1, p) for p in primes), Fraction(0))
    largest = primes[-1]
    refined = 1 - ((1 + Fraction(1, largest)) ** r - (1 + Fraction(r, largest)))
    odd_exp = [(p, e) for p, e in pairs if e % 2]
    present = {3, 5, 7} & set(primes)

    def ok(flag):
        return "Pass" if flag else "Fail"

    v = {"parity": "Pass"}
    v["euler_form"] = ok(len(odd_exp) == 1 and odd_exp[0][0] % 4 == 1 and odd_exp[0][1] % 4 == 1)
    v["steuerwald"] = ok(any(e != 1 for _, e in pairs))
    v["touchard"] = ok(m36 % 12 == 1 or m36 == 9)
    v["min_distinct"] = ok(r >= 9)
    v["min_distinct_no3"] = "NotApplicable" if 3 in present else ok(r >= 12)
    v["min_distinct_no3no5"] = "NotApplicable" if present & {3, 5} else ok(r >= 15)
    v["min_distinct_no357"] = "NotApplicable" if present else ok(r >= 27)
    v["hare_omega"] = ok(omega >= 75)
    tops = list(zip(reversed(primes), (10**8, 10**4, 10**2)))
    v["largest_three"] = ok(all(p > t for p, t in tops))
    v["perisastri_smallest"] = ok(3 * primes[0] <= 2 * r + 9)
    if r < 2:
        v["kishore"] = "NotApplicable"
    else:
        v["kishore"] = ok(all(primes[i - 1] < 2 ** (2 ** (i - 1)) * (r - i + 1) for i in range(2, min(6, r) + 1)))
    v["cohen_component"] = ok(any(e * math.log10(p) > 21 or p**e > 10**20 for p, e in pairs))
    log10_n = _log_n(pairs, 10)
    log2_n = _log_n(pairs, 2)
    if abs(log10_n - 300) < 1e-30 or abs(log2_n - 4**r) < 1e-30:
        raise ValueError("size comparison too close for the oracle")
    v["brent_size"] = ok(log10_n > 300)
    v["nielsen_size"] = ok(log2_n < 4**r)
    v["radical_bound"] = ok(_exceeds_bound(math.prod(primes), "radical", r))
    v["prime_sum_bound"] = ok(_exceeds_bound(sum(primes), "prime_sum", r))
    v["reciprocal_sum"] = ok(recip < 1)
    v["reciprocal_sum_refined"] = ok(recip < refined)
    if sum(e * p.bit_length() for p, e in pairs) <= EXACT_BITS_CAP:
        sigma = math.prod(_geometric_sum(p, e) for p, e in pairs)
        v["perfect_exact"] = ok(sigma == 2 * math.prod(p**e for p, e in pairs))
    else:
        v["perfect_exact"] = "Undecided"
    outcomes = set(v.values())
    overall = "Refuted" if "Fail" in outcomes else "Undecided" if "Undecided" in outcomes else "Viable"
    facts = {
        "touchard": f"{m36} (mod 36)",
        "hare_omega": f"Omega(N) = {omega} ",
        "min_distinct": f"r = {r} ",
        "reciprocal_sum": f"sum(1/p) = {recip} ",
    }
    exp.update(verdicts=v, overall=overall, exit=EXIT_CODES[overall], facts=facts)
    return exp


def check_audit(doc_text: str, exp: dict) -> list[str]:
    if not is_canonical(doc_text):
        return ["audit JSON is not canonical"]
    doc = json.loads(doc_text)
    problems = []
    if doc["candidate"] != exp["candidate"]:
        problems.append(f"candidate {doc['candidate'][:60]!r} != {exp['candidate'][:60]!r}")
    ids = [d["id"] for d in doc["verdicts"]]
    want_ids = list(exp["verdicts"]) if len(exp["verdicts"]) == 1 else list(VERDICT_IDS)
    if ids != want_ids:
        problems.append(f"verdict ids {ids}")
    for d in doc["verdicts"]:
        want = exp["verdicts"].get(d["id"])
        if d["verdict"] != want:
            problems.append(f"{d['id']}: {d['verdict']} != {want}")
        fact = exp["facts"].get(d["id"])
        if fact and fact not in d["detail"]:
            problems.append(f"{d['id']}: detail lacks {fact!r}")
    if doc["overall"] != exp["overall"]:
        problems.append(f"overall {doc['overall']} != {exp['overall']}")
    return problems


def near_tie(kind: str, r: int, k: int, side: str) -> tuple[str, str]:
    """A rational 2^-k below or above the bound, relative to it, as hex
    numerator and denominator."""
    value = bound_value(kind, r, k + 32)
    man, exp = value.man_exp
    x = Fraction(man) * (Fraction(2) ** exp) * (1 + (Fraction(1, 2**k) if side == "above" else -Fraction(1, 2**k)))
    return format(x.numerator, "x"), format(x.denominator, "x")


def check_decision(verdict: str, side: str) -> list[str]:
    want = "below" if side == "below" else "above"
    return [] if verdict == want else [f"near-tie verdict {verdict} for a rational placed {side}"]


def _encloses(lo_text: str, hi_text: str, value: mpmath.mpf, digits: int, prec: int) -> list[str]:
    lo, hi = Fraction(lo_text), Fraction(hi_text)
    man, exp = value.man_exp
    v = Fraction(man) * Fraction(2) ** exp
    err = v / 2**prec  # above the oracle's own error, 2^-(prec + 16) relative
    problems = []
    if not lo <= v - err:
        problems.append(f"lo {lo_text[:30]} exceeds the bound")
    if not hi >= v + err:
        problems.append(f"hi {hi_text[:30]} falls short of the bound")
    if hi - lo > v / 10 ** (digits - 3):
        problems.append("enclosure wider than the requested digits")
    return problems


def check_table(doc_text: str, r: int, digits: int, bits: int) -> list[str]:
    if not is_canonical(doc_text):
        return ["bounds JSON is not canonical"]
    doc = json.loads(doc_text)
    problems = []
    if doc["r"] != r or doc["precision_bits"] != bits or doc["n_upper_bound"] != {"log2": 4**r}:
        problems.append(f"bounds header for r={r}")
    prec = math.ceil(digits * math.log2(10)) + 64
    radical = bound_value("radical", r, prec)
    for key, value in (("radical_lower_bound", radical),
                       ("prime_sum_lower_bound", bound_value("prime_sum", r, prec)),
                       ("n_lower_bound", radical)):
        problems += [f"r={r} {key}: {p}" for p in _encloses(doc[key]["lo"], doc[key]["hi"], value, digits, prec)]
    return problems


def divisor_sigma(n: int) -> int:
    try:
        import sympy
    except ImportError:
        total = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                total += d if d * d == n else d + n // d
        return total
    return int(sympy.divisor_sigma(n))


def odd_count(lo: int, hi: int) -> int:
    return (hi + 1) // 2 - lo // 2


def perfect_report(lo: int, hi: int, parity: str) -> dict:
    found = [n for n in PERFECT_NUMBERS if lo <= n <= hi and (parity == "all" or n % 2 == (parity == "odd"))]
    tested = hi - lo + 1 if parity == "all" else odd_count(lo, hi)
    return {
        "range_lo": lo,
        "range_hi": hi,
        "tested_count": tested,
        "violations": [{"n": n, "detail": f"perfect number: sigma({n}) = {2 * n}"} for n in found],
    }


def check_scan(out: dict, inp: dict, block_size: int) -> list[str]:
    problems = []
    expect = {
        "perfect_low": perfect_report(*inp["perfect_low"], "all"),
        "window_all": perfect_report(*inp["window"], "all"),
        "window_odd": perfect_report(*inp["window"], "odd"),
    }
    for key, want in expect.items():
        if out[key] != want:
            problems.append(f"scan {key}: {json.dumps(out[key])[:120]}")
    clo, chi = inp["chain_window"]
    chain = out["chain_window"]
    if chain["violations"] or chain["tested_count"] != odd_count(clo, chi):
        problems.append(f"radical chain window: {json.dumps(chain)[:120]}")
    suite = out["chain_suite"]
    if not suite["passed"] or suite["violations"] or suite["checked"] != (inp["chain_limit"] - 1) // 2:
        problems.append(f"chain suite: {json.dumps(suite)[:120]}")
    ck = out["checkpoint"]
    want = perfect_report(*inp["checkpoint"], "all")
    klo, khi = inp["checkpoint"]
    nblocks = (khi - klo) // block_size + 1
    if ck["full"] != want or ck["resumed"] != want:
        problems.append("checkpointed scan report differs from the uninterrupted one")
    if ck["kept_lines"] != nblocks // 2 or ck["blocks"] != list(range(nblocks)):
        problems.append(f"checkpoint blocks after resume: kept {ck['kept_lines']}, {len(ck['blocks'])} of {nblocks}")
    return problems


def check_sigma_spot(pairs) -> list[str]:
    return [f"sigma({n}) = {got}, expected {divisor_sigma(n)}" for n, got in pairs if divisor_sigma(n) != got]


def sk_expectation(text: str) -> dict:
    """S_1..S_r by brute force over all subsets of the distinct primes."""
    pairs = parse_candidate(text)
    primes = [p for p, _ in pairs]
    sums = []
    for k in range(1, len(primes) + 1):
        s = sum((Fraction(1, math.prod(c)) for c in itertools.combinations(primes, k)), Fraction(0))
        sums.append({"k": k, "numerator": s.numerator, "denominator": s.denominator})
    return {"factorization": render(pairs), "sums": sums}


def check_cli(label: str, record: dict, seed: int, expectations: dict) -> list[str]:
    """The exit code contract, canonical JSON, and the content of each command."""
    out, code = record["stdout"], record["exit"]
    where = f"cli {label}"
    if not out.endswith("\n") or not is_canonical(out[:-1]):
        return [f"{where}: exit {code}, output is not canonical JSON: {out[:80]!r} {record['stderr'][-200:]!r}"]
    doc = json.loads(out)
    if label.startswith("check"):
        exp = expectations[label]
        problems = check_audit(out[:-1], exp)
        if code != exp["exit"]:
            problems.append(f"exit {code}, expected {exp['exit']}")
        return [f"{where}: {p}" for p in problems]
    if code != 0:
        return [f"{where}: exit {code}, expected 0"]
    if label == "bounds":
        return [f"{where}: {p}" for p in check_table(out[:-1], 9, 50, digits_to_bits(50))]
    if label == "sk":
        exp = expectations["sk"]
        ident = doc["identity"]
        ok = (doc["factorization"] == exp["factorization"] and doc["sums"] == exp["sums"]
              and ident["holds"] and ident["radical_times_one_plus_sum"] == ident["product_of_one_plus_p"])
        return [] if ok else [f"{where}: sums differ from brute-force subset sums"]
    if label == "verify":
        ok = (doc["suite"] == "gmhm" and doc["passed"] and not doc["violations"] and doc["checked"] > 0
              and doc["params"]["trials"] == 20 and doc["params"]["seed"] == seed)
        return [] if ok else [f"{where}: {out[:120]}"]
    if label == "chain":
        ok = doc["passed"] and not doc["violations"] and doc["checked"] == (100_000 - 1) // 2
        return [] if ok else [f"{where}: {out[:120]}"]
    if label == "scan":
        return [] if doc == perfect_report(2, 1_000_000, "all") else [f"{where}: {out[:120]}"]
    return [f"{where}: unknown command"]
