"""The exported names, the settable surface of the entry points and the CLI
options, pinned.

Each exported name is public API to keep working, and each parameter or
option is one more configuration that the tests and the benchmark must
cover, so adding one takes a deliberate edit here.
"""

import argparse
import inspect

import pytest

import opnkit
from opnkit import (
    audit,
    bounds_report,
    compare_rational_to_bound,
    decide,
    run_verify_suite,
    scan_perfect,
    scan_radical_chain,
)
from opnkit import interval
from opnkit.cli import _build_parser, main
from opnkit.interval import Dyadic, Interval, to_decimal

EXPORTS = [
    "BoundsReport",
    "CheckpointError",
    "ConstraintReport",
    "ConstraintVerdict",
    "Dyadic",
    "Factorization",
    "Interval",
    "NonPrimeFactorError",
    "Ordering3",
    "Overall",
    "ParseError",
    "PrecisionExhaustedError",
    "PrimeSet",
    "ScanReport",
    "SuiteResult",
    "Verdict",
    "audit",
    "bounds_report",
    "check_bound_implication",
    "check_exponent_lift",
    "check_gm_hm_step",
    "check_reciprocal_implication",
    "check_refined_reciprocal_implication",
    "compare_rational_to_bound",
    "decide",
    "elementary_symmetric",
    "explain",
    "is_prime",
    "nth_root_enclosure",
    "parse_factorization",
    "prime_sum_lower_bound",
    "radical_lower_bound",
    "random_prime_set",
    "refined_reciprocal_rhs",
    "render",
    "run_verify_suite",
    "scan_perfect",
    "scan_radical_chain",
    "sigma",
    "value",
]

PARAMETERS = [
    (audit, ["f"]),
    (decide, ["x", "enclose"]),
    (compare_rational_to_bound, ["x", "kind", "r"]),
    (run_verify_suite, ["suite", "trials", "seed", "limit"]),
    (scan_perfect, ["lo", "hi", "parity", "jobs", "checkpoint"]),
    (scan_radical_chain, ["lo", "hi", "jobs", "checkpoint"]),
    (bounds_report, ["r", "precision_bits"]),
    (to_decimal, ["d", "digits", "up"]),  # the benchmark's tracer wraps it by name
]

OPTIONS = {
    "bounds": ["-r", "--digits", "--format"],
    "check": ["factorization", "--format"],
    "verify": ["suite", "--trials", "--seed", "--limit", "--format"],
    "scan": ["--kind", "--lo", "--hi", "--parity", "--jobs", "--checkpoint", "--format"],
    "sk": ["factorization", "--format"],
}


def test_package_exports():
    assert sorted(opnkit.__all__) == EXPORTS
    public = {name for name, obj in vars(opnkit).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(EXPORTS)


@pytest.mark.parametrize("func, names", PARAMETERS, ids=[f.__name__ for f, _ in PARAMETERS])
def test_parameter_names(func, names):
    assert list(inspect.signature(func).parameters) == names


def test_decimal_pair_goes_through_to_decimal(monkeypatch):
    # every endpoint rendering passes through interval.to_decimal, where the
    # benchmark's tracer times it
    calls = []

    def recording(d, digits, up):
        calls.append((d, digits, up))
        return "x"

    monkeypatch.setattr(interval, "to_decimal", recording)
    assert Interval(Dyadic(1), Dyadic(3), 8).to_decimal_pair(5) == ("x", "x")
    assert calls == [(Dyadic(1), 5, False), (Dyadic(3), 5, True)]


def test_cli_options():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings or [a.dest]]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


REMOVED_OPTIONS = [
    (["check", "3^2*5*7^2"], "--start-bits 8"),
    (["scan", "--lo", "2", "--hi", "100"], "--block-size 4096"),
    (["check", "3^2*5*7^2"], "--precision-cap 64"),
    (["verify", "bounds", "--trials", "5"], "--precision-cap 64"),
]


def test_removed_option_exits_2(capsys):
    for command, option in REMOVED_OPTIONS:
        with pytest.raises(SystemExit) as exc:
            main([*command, *option.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
