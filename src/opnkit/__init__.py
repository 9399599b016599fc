"""opnkit: exact and certified-interval arithmetic around odd perfect numbers.

Divisor sums and the elementary symmetric polynomials of the primes are
computed exactly over certified prime factorizations, which every command
takes as its input and never has to find; the irrational lower bounds in
the number of distinct prime factors are evaluated with outward-rounded
dyadic intervals; and a constraint battery audits candidate
factorizations against the classical necessary conditions for odd
perfect numbers.
"""

from .arith import (
    Factorization,
    NonPrimeFactorError,
    ParseError,
    elementary_symmetric,
    parse_factorization,
    render,
    sigma,
    value,
)
from .bounds import (
    BoundsReport,
    Ordering3,
    PrecisionExhaustedError,
    bounds_report,
    compare_rational_to_bound,
    decide,
    prime_sum_lower_bound,
    radical_lower_bound,
    refined_reciprocal_rhs,
)
from .checks import (
    PrimeSet,
    SuiteResult,
    check_bound_implication,
    check_exponent_lift,
    check_gm_hm_step,
    check_reciprocal_implication,
    check_refined_reciprocal_implication,
    random_prime_set,
    run_verify_suite,
)
from .constraints import (
    ConstraintReport,
    ConstraintVerdict,
    Overall,
    Verdict,
    audit,
    explain,
)
from .interval import Dyadic, Interval, nth_root_enclosure
from .primes import is_prime
from .scan import CheckpointError, ScanReport, scan_perfect, scan_radical_chain

__all__ = [
    "Factorization",
    "NonPrimeFactorError",
    "ParseError",
    "elementary_symmetric",
    "parse_factorization",
    "render",
    "sigma",
    "value",
    "BoundsReport",
    "Ordering3",
    "PrecisionExhaustedError",
    "bounds_report",
    "compare_rational_to_bound",
    "decide",
    "prime_sum_lower_bound",
    "radical_lower_bound",
    "refined_reciprocal_rhs",
    "PrimeSet",
    "SuiteResult",
    "check_bound_implication",
    "check_exponent_lift",
    "check_gm_hm_step",
    "check_reciprocal_implication",
    "check_refined_reciprocal_implication",
    "random_prime_set",
    "run_verify_suite",
    "ConstraintReport",
    "ConstraintVerdict",
    "Overall",
    "Verdict",
    "audit",
    "explain",
    "Dyadic",
    "Interval",
    "nth_root_enclosure",
    "is_prime",
    "CheckpointError",
    "ScanReport",
    "scan_perfect",
    "scan_radical_chain",
]
