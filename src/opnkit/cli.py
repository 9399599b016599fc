"""Command-line front end: bound tables, candidate audits, verification
suites, and perfect-number scans, in text or single-document JSON.

Exit codes are a stable contract:
  0  success (audit Viable, verify clean, scan/sk/bounds completed)
  1  audit Refuted, or a verify suite or radical-chain scan found violations
  2  invalid arguments or unparseable factorization
  3  audit Undecided, or a verify suite reached its precision cap
  4  checkpoint file that cannot be opened or read, or one written by a different scan
  5  internal error: an unexpected exception, reported on one stderr line
  141  stdout closed by its reader (as by `| head`) before the output was
       written; the shell's SIGPIPE status, and nothing more is written.
       A broken pipe other than stdout is an internal error (5)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .arith import NonPrimeFactorError, ParseError, parse_factorization, render
from .arith import elementary_symmetric
from .bounds import (
    BOUNDS_DIGITS_MAX,
    DEFAULT_REPORT_DIGITS,
    PrecisionExhaustedError,
    bounds_report,
)
from .checks import SUITES, run_verify_suite
from .constraints import Overall, audit, explain
from .interval import digit_string
from .scan import CheckpointError, scan_perfect, scan_radical_chain, usable_cpus

_DIGIT_SAFETY_BITS = 8


def _dumps(obj) -> str:
    """Canonical JSON: parsing and re-rendering reproduces identical bytes.

    Ints are rendered by `digit_string`, so they print in full past the
    interpreter's int-to-str digit limit, where json.dumps refuses them.
    """
    if isinstance(obj, int) and not isinstance(obj, bool):  # a bool is an int too
        return ("-" if obj < 0 else "") + digit_string(abs(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_dumps, obj)) + "]"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digits_to_bits(digits: int) -> int:
    return math.ceil(digits * math.log2(10)) + _DIGIT_SAFETY_BITS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opnkit",
        description="Exact and certified-interval checks around odd perfect numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="lower/upper bound table for a given r")
    p_bounds.add_argument("-r", type=int, required=True, help="number of distinct prime factors")
    p_bounds.add_argument("--digits", type=int, default=DEFAULT_REPORT_DIGITS,
                          help="significant decimal digits in the report "
                               f"(default 50, at most {BOUNDS_DIGITS_MAX})")
    p_bounds.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="audit a candidate factorization")
    p_check.add_argument("factorization", help='e.g. "3^2*5*7^2"')
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run a property-verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--trials", type=int, default=10_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--limit", type=int, default=100_000,
                          help="exhaustive ceiling for the chain suite")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_scan = sub.add_parser("scan", help="exhaustive scan of a range")
    p_scan.add_argument("--kind", choices=("perfect", "radical-chain"), default="perfect",
                        help="find perfect numbers, or verify the radical-abundancy "
                             "relation for every odd n (violations exit 1)")
    p_scan.add_argument("--lo", type=int, required=True)
    p_scan.add_argument("--hi", type=int, required=True)
    p_scan.add_argument("--parity", choices=("all", "odd", "even"), default="all")
    p_scan.add_argument("--jobs", type=int, default=usable_cpus(),
                        help="worker processes, at most the usable CPUs (default: all of them)")
    p_scan.add_argument("--checkpoint", help="JSON-lines file of completed blocks (resumable)")
    p_scan.add_argument("--format", choices=("text", "json"), default="text")

    p_sk = sub.add_parser("sk", help="reciprocal symmetric sums S_1..S_r of a factorization")
    p_sk.add_argument("factorization")
    p_sk.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_bounds(args) -> int:
    if args.digits < 1:
        print("error: --digits must be >= 1", file=sys.stderr)
        return 2
    if args.digits > BOUNDS_DIGITS_MAX:
        print(f"error: --digits is at most {BOUNDS_DIGITS_MAX}, got {args.digits}", file=sys.stderr)
        return 2
    try:
        report = bounds_report(args.r, _digits_to_bits(args.digits))
    except ValueError as exc:  # r below 1 or above BOUNDS_R_MAX
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_dumps(report.to_json_dict(args.digits)))
        return 0
    lo_a, hi_a = report.radical_lb.to_decimal_pair(args.digits)
    lo_b, hi_b = report.prime_sum_lb.to_decimal_pair(args.digits)
    print(f"r: {report.r}")
    print(f"precision: {report.precision_bits} bits (~{args.digits} digits)")
    print(f"radical lower bound:   [{lo_a}, {hi_a}]")
    print(f"prime-sum lower bound: [{lo_b}, {hi_b}]")
    print(f"N lower bound:         [{lo_a}, {hi_a}]")
    print(f"N upper bound:         2^(4^{report.r}) = 2^{digit_string(report.n_ub_log2)}")
    return 0


def _parse_or_complain(text: str):
    try:
        return parse_factorization(text)
    except (ParseError, NonPrimeFactorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_check(args) -> int:
    f = _parse_or_complain(args.factorization)
    if f is None:
        return 2
    report = audit(f)
    if args.format == "json":
        print(_dumps(report.to_json_dict()))
    else:
        print(f"candidate: {render(f)}")
        print(explain(report))
    return {Overall.VIABLE: 0, Overall.REFUTED: 1, Overall.UNDECIDED: 3}[report.overall]


def _cmd_verify(args) -> int:
    if args.trials < 1 or args.limit < 3:
        print("error: --trials must be >= 1 and --limit >= 3", file=sys.stderr)
        return 2
    try:
        result = run_verify_suite(args.suite, trials=args.trials, seed=args.seed, limit=args.limit)
    except PrecisionExhaustedError as exc:
        print(f"undecided: suite {args.suite} reached the precision cap: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a chain limit above CHAIN_LIMIT_MAX
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_dumps(result.to_json_dict()))
    else:
        print(f"suite: {result.suite}")
        print(f"checked: {result.checked}")
        print(f"violations: {len(result.violations)}")
        for v in result.violations:
            print(f"  counterexample: {v}")
    return 0 if result.passed else 1


def _cmd_scan(args) -> int:
    chain = args.kind == "radical-chain"
    if chain and args.parity == "even":
        print("error: a radical-chain scan covers odd n only", file=sys.stderr)
        return 2
    options = {"jobs": args.jobs, "checkpoint": args.checkpoint}
    try:
        if chain:
            report = scan_radical_chain(args.lo, args.hi, **options)
        else:
            report = scan_perfect(args.lo, args.hi, args.parity, **options)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_dumps(report.to_json_dict()))
    else:
        print(f"range: [{report.range_lo}, {report.range_hi}] parity={'odd' if chain else args.parity}")
        print(f"tested: {report.tested_count}")
        print(f"found: {len(report.violations)}")
        for n, detail in report.violations:
            print(f"  {n}: {detail}")
        print(f"elapsed: {report.elapsed_seconds:.2f}s")
    return 1 if chain and report.violations else 0


def _cmd_sk(args) -> int:
    f = _parse_or_complain(args.factorization)
    if f is None:
        return 2
    r = len(f.primes)
    coeffs = elementary_symmetric(f.primes)  # S_k = e_{r-k} / e_r
    sums = [Fraction(coeffs[r - k], coeffs[r]) for k in range(1, r + 1)]
    identity_lhs = sum(coeffs)  # radical * (1 + sum S_k), cleared of denominators
    identity_rhs = math.prod(p + 1 for p in f.primes)
    if args.format == "json":
        doc = {
            "factorization": render(f),
            "sums": [
                {"k": k, "numerator": s.numerator, "denominator": s.denominator}
                for k, s in enumerate(sums, start=1)
            ],
            "identity": {
                "radical_times_one_plus_sum": identity_lhs,
                "product_of_one_plus_p": identity_rhs,
                "holds": identity_lhs == identity_rhs,
            },
        }
        print(_dumps(doc))
        return 0
    for k, s in enumerate(sums, start=1):
        print(f"S_{k} = {digit_string(s.numerator)}/{digit_string(s.denominator)}")
    print(
        f"identity check: radical*(1 + sum S_k) = {digit_string(identity_lhs)}, "
        f"prod(1 + p) = {digit_string(identity_rhs)} -> "
        f"{'ok' if identity_lhs == identity_rhs else 'MISMATCH'}"
    )
    return 0


def _stdout_closed() -> bool:
    """Whether stdout is a pipe whose reader has gone, so a BrokenPipeError
    came from stdout and not from some other pipe: poll flags its write end."""
    import select  # only on this error path: the module adds to every run's RSS

    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        return any(events & (select.POLLERR | select.POLLHUP) for _, events in poller.poll(0))
    except (AttributeError, OSError, ValueError):  # no poll, or stdout is not a file
        return False


def main(argv=None) -> int:
    parser = _build_parser()
    handlers = {
        "bounds": _cmd_bounds,
        "check": _cmd_check,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
        "sk": _cmd_sk,
    }
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help, or a usage error: argparse has written and exits
            sys.stdout.flush()
            raise
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's final flush
        return code
    except Exception as exc:  # a fault of the program, never a verdict: not exit 1
        if isinstance(exc, BrokenPipeError) and _stdout_closed():  # the reader's doing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the final flush cannot fail again
            return 141  # 128 + SIGPIPE, the status a shell gives a writer killed by a closed pipe
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"internal error: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
