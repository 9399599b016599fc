"""Certified evaluation of the lower-bound expressions in r (the number of
distinct prime factors) and exact evaluation of the rational ones.

The two irrational bounds share one skeleton: enclose 2**(1/r) with a
certified dyadic interval, subtract 1, then raise/divide with outward
rounding.  Strict comparisons of an exact rational against an irrational
value are decided by `decide`, never by floating point: the enclosure is
tightened until it excludes the rational, or a precision cap is hit.

Within one call, 2**(1/r) - 1 is enclosed once per (r, working bits).  The
outermost call of a function marked `shares_roots` (`decide`,
`bounds_report`, `constraints.audit` and `checks.run_verify_suite`) opens
a store of these enclosures, and drops it when it returns, so nothing is
cached across calls.  Both bounds read the store, and a root refined to
more bits continues Newton from the store's enclosure of it at the most
bits below (see `nth_root_enclosure`), not from the float seed.  Outside
such a call every enclosure is computed afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .interval import Dyadic, Interval, ONE, div_dir, nth_root_enclosure, pow_dir

DEFAULT_START_BITS = 64
PRECISION_CAP_BITS = 1 << 20  # most bits `decide` refines to; read when it runs
DEFAULT_REPORT_DIGITS = 50
BOUNDS_R_MAX = 10**6  # the report's 4**r integer renders in time about r**1.8; see bounds_report
BOUNDS_DIGITS_MAX = 2 * 10**4  # most digits a bound table renders per endpoint; see bounds_report


class Ordering3(Enum):
    BELOW = "below"
    ABOVE = "above"
    UNDECIDED = "undecided"


class PrecisionExhaustedError(RuntimeError):
    """An interval comparison could not be resolved below the precision cap."""


def _validate(r: int, precision_bits: int) -> None:
    if r < 1:
        raise ValueError("r must be >= 1")
    if precision_bits < 1:
        raise ValueError("precision_bits must be >= 1")


def _work_bits(r: int, precision_bits: int) -> int:
    # raising to the r-th power multiplies relative error by about r, and the
    # subtraction of 1 loses another log2(r) bits; pad for both
    return precision_bits + 2 * max(1, r.bit_length()) + 24


# r -> {working bits: (enclosure of 2**(1/r), its lo - 1, its hi - 1)}; a dict
# only while a `shares_roots` call runs.  It is module state because the
# pinned signatures of the entry points leave no parameter to pass it in.
# Calls that overlap on several threads may share it, or find it dropped and
# compute afresh: every entry is a certified enclosure, so only time changes.
_roots: dict | None = None


def shares_roots(fn):
    """`fn`, opening the store of roots for its call unless a caller has."""

    def call(*args, **kwargs):
        global _roots
        if _roots is not None:
            return fn(*args, **kwargs)
        _roots = {}
        try:
            return fn(*args, **kwargs)
        finally:
            _roots = None

    for name in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(call, name, getattr(fn, name))
    call.__wrapped__ = fn  # so inspect.signature shows fn's parameters
    return call


def _root_minus_one(r: int, work: int) -> tuple[Dyadic, Dyadic]:
    """An enclosure of 2**(1/r) - 1 at `work` bits: the store's, when open."""
    store = _roots  # read once: an outermost call on another thread may drop it
    levels = {} if store is None else store.setdefault(r, {})
    found = levels.get(work)
    if found is None:
        below = [w for w in levels if w < work]
        if below:
            root = nth_root_enclosure(2, r, work, _previous=levels[max(below)][0])
        else:
            root = nth_root_enclosure(2, r, work)
        found = levels[work] = (root, root.lo - 1, root.hi - 1)
        if found[1].mant <= 0:
            raise AssertionError("enclosure of 2**(1/r) fell at or below 1")
    return found[1], found[2]


def _radical_from(r: int, work: int, d_lo: Dyadic, d_hi: Dyadic) -> tuple[Dyadic, Dyadic]:
    # 1 / d**r for d in [d_lo, d_hi], outward
    den_lo = pow_dir(d_lo, r, work, up=False)
    den_hi = pow_dir(d_hi, r, work, up=True)
    return div_dir(ONE, den_hi, work, up=False), div_dir(ONE, den_lo, work, up=True)


def _prime_sum_from(r: int, work: int, d_lo: Dyadic, d_hi: Dyadic) -> tuple[Dyadic, Dyadic]:
    # r / d for d in [d_lo, d_hi], outward
    r_dyadic = Dyadic(r)
    return div_dir(r_dyadic, d_hi, work, up=False), div_dir(r_dyadic, d_lo, work, up=True)


def _lower_bound(r: int, precision_bits: int, derive) -> Interval:
    """The bound `derive` makes from an enclosure of 2**(1/r) - 1."""
    _validate(r, precision_bits)
    if r == 1:
        return Interval.point(1, precision_bits)
    work = _work_bits(r, precision_bits)
    return Interval(*derive(r, work, *_root_minus_one(r, work)), precision_bits)


def radical_lower_bound(r: int, precision_bits: int) -> Interval:
    """Certified enclosure of 1 / (2**(1/r) - 1)**r; exact 1 when r = 1.

    Any product of r distinct primes whose divisor-sum ratio stays below 1
    must exceed this value, so it lower-bounds the radical of an odd
    perfect number with r distinct prime factors.
    """
    return _lower_bound(r, precision_bits, _radical_from)


def prime_sum_lower_bound(r: int, precision_bits: int) -> Interval:
    """Certified enclosure of r / (2**(1/r) - 1); exact 1 when r = 1."""
    return _lower_bound(r, precision_bits, _prime_sum_from)


def refined_reciprocal_rhs(r: int, largest_prime: int) -> Fraction:
    """Exact value of 1 - ((1 + 1/P)**r - (1 + r/P)) for P = largest_prime.

    This is the refined ceiling for the sum of prime reciprocals; it can be
    <= 0 when r is large relative to P and is returned as-is in that case.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if largest_prime < 2:
        raise ValueError("largest_prime must be >= 2")
    p = Fraction(1, largest_prime)
    return 1 - ((1 + p) ** r - (1 + r * p))


_EVALUATORS = {
    "radical": radical_lower_bound,
    "prime_sum": prime_sum_lower_bound,
}


@shares_roots
def decide(x: Fraction, enclose: Callable[[int], Interval]) -> tuple[Ordering3, Interval]:
    """Certified strict comparison of a rational x against a real value.

    `enclose(bits)` returns a certified enclosure of the value at `bits`
    bits of precision.  Refinement starts at DEFAULT_START_BITS (or at the
    cap, if that is lower) and doubles until the enclosure excludes x
    (BELOW: x is below the value, ABOVE: x is above it) or reaches
    PRECISION_CAP_BITS (UNDECIDED).  The enclosure that settled it comes
    back too; its precision_bits are the bits used, and equal the cap when
    the comparison is UNDECIDED.

    The call shares one store of roots of two (see the module docstring),
    so when `enclose` is built from `radical_lower_bound` or
    `prime_sum_lower_bound`, each level encloses 2**(1/r) once and a
    higher level continues Newton from the level below it, not from the
    float seed.  The store is dropped when the outermost such call returns;
    nothing is cached across calls.
    """
    cap = PRECISION_CAP_BITS
    bits = min(DEFAULT_START_BITS, cap)
    while True:
        enclosure = enclose(bits)
        if enclosure.lo.cmp_fraction(x) > 0:
            return Ordering3.BELOW, enclosure
        if enclosure.hi.cmp_fraction(x) < 0:
            return Ordering3.ABOVE, enclosure
        if bits >= cap:
            return Ordering3.UNDECIDED, enclosure
        bits = min(bits * 2, cap)


def compare_rational_to_bound(x, kind: str, r: int) -> Ordering3:
    """Certified strict comparison of a rational against a bound expression.

    Returns BELOW or ABOVE only when the interval enclosure excludes x, so
    the verdict is exact.  Both bounds are the exact point 1 at r = 1, where
    an exact tie is UNDECIDED since no strict verdict exists.  For r >= 2
    the bounds are irrational, so any rational x separates at some finite
    precision; `decide` gives up at its cap, PRECISION_CAP_BITS, and then
    the answer is UNDECIDED.  An r below 1 raises ValueError from the
    bound's evaluator.
    """
    if kind not in _EVALUATORS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {tuple(_EVALUATORS)}")
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    evaluator = _EVALUATORS[kind]
    order, _ = decide(x, lambda bits: evaluator(r, bits))
    return order


@dataclass(frozen=True)
class BoundsReport:
    """All lower/upper bounds for a given r at a given precision.

    N exceeds its radical, so the radical bound is also the lower bound on
    N; the JSON reports it under `n_lower_bound` as well.  The upper bound
    is the classical 2**(4**r), kept symbolic as its exponent `n_ub_log2`.
    """

    r: int
    radical_lb: Interval
    prime_sum_lb: Interval
    n_ub_log2: int
    precision_bits: int

    def to_json_dict(self, digits: int = DEFAULT_REPORT_DIGITS) -> dict:
        def pair(iv: Interval) -> dict:
            lo, hi = iv.to_decimal_pair(digits)
            return {"lo": lo, "hi": hi}

        radical = pair(self.radical_lb)
        return {
            "r": self.r,
            "precision_bits": self.precision_bits,
            "radical_lower_bound": radical,
            "prime_sum_lower_bound": pair(self.prime_sum_lb),
            "n_lower_bound": radical,
            "n_upper_bound": {"log2": self.n_ub_log2},
        }


@shares_roots
def bounds_report(r: int, precision_bits: int) -> BoundsReport:
    """Both lower bounds and the upper bound for r, from one root of 2.

    The two lower bounds are `radical_lower_bound(r, precision_bits)` and
    `prime_sum_lower_bound(r, precision_bits)`.  They share the working
    precision, and the call's store of roots encloses 2**(1/r) - 1 once
    for both.

    `r` is at most BOUNDS_R_MAX = 10**6, checked before any enclosure is
    computed.  What grows fastest with r is not a bound but the report's
    upper bound 2**(4**r), whose exponent 4**r is printed in full: it has
    0.602 * r digits, and rendering them took 0.07 s at r = 10**5, 0.25 s
    at 2 * 10**5, 1.5 s at 5 * 10**5 and 5.3 s at 10**6 (2 vCPUs), about
    r**1.8, while the two lower bounds take milliseconds at any r.  The
    ceiling keeps a whole table within about six seconds; every doubling
    of r beyond it would multiply that by about 3.5.

    The command line renders each endpoint to at most BOUNDS_DIGITS_MAX =
    2 * 10**4 significant digits, checked before this is called.  A whole
    `opnkit bounds -r 9` table took 0.16 s at 4000 digits, 0.26-0.30 s at
    2 * 10**4, 0.87-0.94 s at 5 * 10**4 and 2.6 s at 10**5, and at r =
    BOUNDS_R_MAX 5.0-5.1 s at 4000 digits, 5.3-5.5 s at 2 * 10**4 and
    7.0 s at 5 * 10**4 (2 vCPUs); 10**6 digits ran past a minute.
    """
    if r > BOUNDS_R_MAX:
        raise ValueError(f"r is at most {BOUNDS_R_MAX}, got {r}")
    return BoundsReport(
        r=r,
        radical_lb=radical_lower_bound(r, precision_bits),
        prime_sum_lb=prime_sum_lower_bound(r, precision_bits),
        n_ub_log2=4**r,
        precision_bits=precision_bits,
    )
