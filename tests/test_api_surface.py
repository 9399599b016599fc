"""The settable surface of the entry points and of the CLI, pinned.

Each parameter or option is one more configuration that the tests and the
benchmark must cover, so adding one takes a deliberate edit here.
"""

import argparse
import inspect

import pytest

from opnkit import (
    audit,
    bounds_report,
    compare_rational_to_bound,
    decide,
    run_verify_suite,
    scan_perfect,
    scan_radical_chain,
)
from opnkit.cli import _build_parser, main

PARAMETERS = [
    (audit, ["f", "precision_cap_bits"]),
    (decide, ["x", "enclose", "cap_bits"]),
    (compare_rational_to_bound, ["x", "kind", "r", "precision_cap_bits"]),
    (run_verify_suite, ["suite", "trials", "seed", "limit", "precision_cap_bits"]),
    (scan_perfect, ["lo", "hi", "parity", "jobs", "block_size", "checkpoint"]),
    (scan_radical_chain, ["lo", "hi", "jobs", "block_size", "checkpoint"]),
    (bounds_report, ["r", "precision_bits"]),
]

OPTIONS = {
    "bounds": ["-r", "--digits", "--format"],
    "check": ["factorization", "--format", "--precision-cap"],
    "verify": ["suite", "--trials", "--seed", "--limit", "--precision-cap", "--format"],
    "scan": ["--kind", "--lo", "--hi", "--parity", "--jobs", "--block-size", "--checkpoint", "--format"],
    "sk": ["factorization", "--format"],
}


@pytest.mark.parametrize("func, names", PARAMETERS, ids=[f.__name__ for f, _ in PARAMETERS])
def test_parameter_names(func, names):
    assert list(inspect.signature(func).parameters) == names


def test_cli_options():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings or [a.dest]]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


def test_removed_option_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "3^2*5*7^2", "--start-bits", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --start-bits 8" in capsys.readouterr().err
