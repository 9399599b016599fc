import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opnkit import bounds, checks, constraints, scan
from opnkit.bounds import BOUNDS_DIGITS_MAX, BOUNDS_R_MAX, PrecisionExhaustedError
from opnkit.checks import CHAIN_LIMIT_MAX, SUITES
from opnkit.cli import main
from opnkit.interval import digit_string
from opnkit.primes import primes_up_to
from opnkit.scan import MAX_SPAN, PERFECT_HI_MAX, RADICAL_CHAIN_HI_MAX
from test_api_surface import OPTIONS
from test_arith import _FACTOR_TEXT
from test_constraints import HUGE_WELL_FORMED, never_excluding
from test_primes import fixed_base_liar

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- bounds ---------------------------------------------------------------------


def test_bounds_r1(capsys):
    code, out, _ = run(capsys, "bounds", "-r", "1", "--digits", "10")
    assert code == 0
    assert "[1.000000000e0, 1.000000000e0]" in out
    assert "2^(4^1) = 2^4" in out


def test_bounds_r2_brackets_algebraic(capsys):
    code, out, _ = run(capsys, "bounds", "-r", "2", "--digits", "20")
    assert code == 0
    assert "5.8284271247461900976" in out


def test_bounds_r9_json(capsys):
    code, out, _ = run(capsys, "bounds", "-r", "9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_upper_bound"]["log2"] == 262144
    assert doc["radical_lower_bound"]["lo"].startswith("7.400694480049443621632485203800044")


def test_bounds_beyond_str_digit_limit(capsys):
    # 5000 digits: more than str() renders by default
    code, out, err = run(capsys, "bounds", "-r", "9", "--digits", "5000")
    assert code == 0, err
    assert "radical lower bound:   [7.40069448004944362163" in out
    lo = out.split("radical lower bound:   [")[1].split(",")[0]
    assert len(lo) == len("7.") + 4999 + len("e3")


def test_bounds_above_digits_ceiling(capsys, monkeypatch):
    from opnkit import cli
    from opnkit.bounds import BOUNDS_DIGITS_MAX

    monkeypatch.setattr(cli, "bounds_report", lambda *args: pytest.fail("enclosure computed"))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "bounds", "-r", "9", "--digits", str(BOUNDS_DIGITS_MAX + 1), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: --digits is at most {BOUNDS_DIGITS_MAX}, got {BOUNDS_DIGITS_MAX + 1}\n"


def test_bounds_invalid(capsys):
    code, _, err = run(capsys, "bounds", "-r", "0")
    assert code == 2
    assert "error" in err


def test_bounds_above_r_ceiling(capsys, monkeypatch):
    from opnkit import bounds

    monkeypatch.setattr(bounds, "nth_root_enclosure", lambda *args: pytest.fail("enclosure computed"))
    code, out, err = run(capsys, "bounds", "-r", str(bounds.BOUNDS_R_MAX + 1), "--format", "json")
    assert code == 2
    assert out == ""
    assert err == f"error: r is at most {bounds.BOUNDS_R_MAX}, got {bounds.BOUNDS_R_MAX + 1}\n"


# --- check ----------------------------------------------------------------------


def test_check_refuted(capsys):
    code, out, _ = run(capsys, "check", "3^2*5*7^2")
    assert code == 1
    assert "FAIL min_distinct: r = 3 < 9" in out
    assert out.rstrip().endswith("overall: Refuted")


def test_check_composite(capsys):
    code, _, err = run(capsys, "check", "4*7")
    assert code == 2
    assert "composite factor 4" in err


@pytest.mark.parametrize("command, text", [("check", "3^2*{}"), ("sk", "3*{}")])
def test_composite_built_for_fixed_bases_exits_2(capsys, command, text):
    n = math.prod(fixed_base_liar())
    code, out, err = run(capsys, command, text.format(n))
    assert (code, out) == (2, "")
    assert err.startswith("error: composite factor ") and err.count("\n") == 1


def test_check_even(capsys):
    code, out, _ = run(capsys, "check", "2^2*7")
    assert code == 1
    assert "FAIL parity" in out


def test_check_undecided_exit_code(capsys):
    code, out, _ = run(capsys, "check", HUGE_WELL_FORMED)
    assert code == 3
    assert "overall: Undecided" in out


def test_check_undecided_bound_exit_code(monkeypatch, capsys):
    # a bound comparison the cap leaves open is an Undecided verdict; its
    # evaluator is replaced, since no real product of primes stays open
    monkeypatch.setattr(constraints, "radical_lower_bound", never_excluding)
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 256)
    code, out, err = run(capsys, "check", HUGE_WELL_FORMED)
    assert (code, err) == (3, "")
    (line,) = [line for line in out.splitlines() if "radical_bound" in line]
    assert line.startswith("UNDECIDED radical_bound: radical(N) = ")
    assert line.endswith(" (undecided at 256-bit cap)")


def test_check_beyond_str_digit_limit(capsys):
    # sigma(N) has 4776 digits, past Python's int-to-str limit
    code, out, err = run(capsys, "check", "3^10001*5^2*7^2")
    assert code == 1
    assert "(4776 digits)" in out and out.endswith("overall: Refuted\n")
    assert err == ""


def test_check_reciprocal_sums_beyond_str_digit_limit(capsys):
    # sum(1/p) over the first 2000 odd primes has a 7487-digit denominator
    primes = primes_up_to(20_000)[1:2001]
    text = "*".join(f"{p}^2" for p in primes[:-1]) + f"*{primes[-1]}"
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "check", text, "--format", fmt)
        assert code == 1
        assert err == ""
    assert json.loads(out)["overall"] == "Refuted"


def test_check_json_roundtrip(capsys):
    code, out, _ = run(capsys, "check", "3^2*5*7^2", "--format", "json")
    assert code == 1
    rendered = out.strip()
    doc = json.loads(rendered)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert again == rendered


# --- verify ---------------------------------------------------------------------


def test_verify_chain(capsys):
    code, out, _ = run(capsys, "verify", "chain", "--limit", "20000")
    assert code == 0
    assert "violations: 0" in out


def test_verify_chain_lists_violations_in_order(monkeypatch, capsys):
    holds = checks._chain_step_holds
    monkeypatch.setattr(checks, "_chain_step_holds", lambda p, e: (p, e) != (3, 2) and holds(p, e))
    code, out, _ = run(capsys, "verify", "chain", "--limit", "2000")
    assert code == 1
    failing = [n for n in range(3, 2001, 2) if n % 9 == 0 and n % 27]  # exactly 3^2 divides n
    assert out.endswith(f"violations: {len(failing)}\n"
                        + "".join(f"  counterexample: n={n}\n" for n in failing))


def test_verify_chain_limit_above_ceiling_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(checks, "spf_sieve_odd", lambda limit: pytest.fail("allocated"))
    code, out, err = run(capsys, "verify", "chain", "--limit", str(checks.CHAIN_LIMIT_MAX + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_lift_seeded(capsys):
    code, out, _ = run(capsys, "verify", "lift", "--trials", "300", "--seed", "42")
    assert code == 0


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "bounds", "--trials", "50", "--seed", "9", "--format", "json")
    _, out2, _ = run(capsys, "verify", "bounds", "--trials", "50", "--seed", "9", "--format", "json")
    assert out1 == out2


def test_verify_bad_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_bad_trials(capsys):
    code, _, err = run(capsys, "verify", "lift", "--trials", "0")
    assert code == 2


def test_precision_cap_env(monkeypatch, capsys):
    # the CLI reads only its arguments: the variable that once set the cap,
    # well formed or not, changes no output and no exit code
    commands = (
        ["check", "3^2*5*7^2", "--format", "json"],
        ["check", "3^2*5*7^2"],
        ["scan", "--lo", "2", "--hi", "10000", "--jobs", "1", "--format", "json"],
    )
    plain = [run(capsys, *argv) for argv in commands]
    for raw in ("abc", "1.5", "0", "-4096", "4096"):
        monkeypatch.setenv("OPNKIT_PRECISION_CAP", raw)
        assert [run(capsys, *argv) for argv in commands] == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "3^2*5*7^2", "--precision-cap", "0"],
        ["check", "3^2*5*7^2", "--precision-cap", "-64"],
        ["verify", "chain", "--limit", "9", "--precision-cap", "0"],
        ["verify", "gmhm", "--trials", "5", "--precision-cap", "0"],
        ["verify", "bounds", "--trials", "5", "--precision-cap", "-1"],
    ],
)
def test_precision_arguments_rejected(capsys, argv):
    # the cap is a constant of opnkit.bounds, no longer an option
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_verify_precision_exhausted_exit_code(monkeypatch, capsys):
    import opnkit.cli as cli

    # gmhm is decided in integers, so no cap leaves it open
    argv = ["verify", "gmhm", "--trials", "50", "--seed", "11", "--format", "json"]
    code, default, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(bounds, "PRECISION_CAP_BITS", 1)
    assert run(capsys, *argv) == (0, default, "")

    # the real bounds suite, its radical comparisons kept open up to the cap
    monkeypatch.setitem(bounds._EVALUATORS, "radical", never_excluding)
    code, out, err = run(capsys, "verify", "bounds", "--trials", "5")
    assert (code, out) == (3, "")
    assert err == "undecided: suite bounds reached the precision cap: bound comparison at 1 bits\n"

    def exhausted(suite, **kwargs):
        raise PrecisionExhaustedError("bound comparison at 1 bits")

    monkeypatch.setattr(cli, "run_verify_suite", exhausted)
    code, out, err = run(capsys, "verify", "bounds", "--trials", "5")
    assert (code, out) == (3, "")
    assert err.startswith("undecided: ") and err.count("\n") == 1


# --- scan -----------------------------------------------------------------------


def test_scan_classical(capsys):
    code, out, _ = run(capsys, "scan", "--lo", "2", "--hi", "10000", "--jobs", "1")
    assert code == 0
    for n in (6, 28, 496, 8128):
        assert str(n) in out


def test_scan_odd_empty(capsys):
    code, out, _ = run(capsys, "scan", "--lo", "3", "--hi", "100000", "--parity", "odd", "--jobs", "1")
    assert code == 0
    assert "found: 0" in out


def test_scan_json_roundtrip(capsys):
    code, out, _ = run(capsys, "scan", "--lo", "2", "--hi", "10000", "--jobs", "1", "--format", "json")
    assert code == 0
    rendered = out.strip()
    doc = json.loads(rendered)
    assert [v["n"] for v in doc["violations"]] == [6, 28, 496, 8128]
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == rendered


def test_scan_invalid_range(capsys):
    code, _, err = run(capsys, "scan", "--lo", "10", "--hi", "2", "--jobs", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["--lo", str(PERFECT_HI_MAX - 10), "--hi", str(PERFECT_HI_MAX + 1)],  # above the hi ceiling
    ["--lo", "2", "--hi", str(MAX_SPAN + 2)],  # longer than the span limit
])
def test_scan_beyond_limits_exits_2(capsys, argv):
    code, out, err = run(capsys, "scan", "--jobs", "1", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_scan_bad_checkpoint(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    ck.write_text("garbage\n{}\n")
    code, _, err = run(
        capsys, "scan", "--lo", "2", "--hi", "10000", "--jobs", "1", "--checkpoint", str(ck)
    )
    assert code == 4
    assert "checkpoint" in err


def test_scan_checkpoint_in_missing_directory_exits_4(tmp_path, capsys):
    ck = tmp_path / "missing" / "ck.jsonl"
    code, out, err = run(capsys, "scan", "--lo", "2", "--hi", "10", "--checkpoint", str(ck))
    assert (code, out) == (4, "")
    assert err.startswith("error: cannot open checkpoint: ") and err.count("\n") == 1


@pytest.mark.parametrize("first, second", [
    # blocks of 1000, as `--block-size 1000` once wrote them
    (["perfect", 2, 10000, "all", 1000], []),
    (["perfect", 2, 10000, "odd", 65536], ["--parity", "all"]),
])
def test_scan_checkpoint_of_another_scan_exits_4(tmp_path, capsys, first, second):
    # `first` names the scan that wrote the checkpoint, `second` the resumed one
    ck = tmp_path / "ck.jsonl"
    ck.write_text(json.dumps({"block": 0, "scan": first, "violations": []}) + "\n")
    before = ck.read_bytes()
    argv = ["scan", "--lo", "2", "--hi", "10000", "--jobs", "1", "--checkpoint", str(ck)]
    code, out, err = run(capsys, *argv, *second)
    assert (code, out) == (4, "")
    assert err.startswith("error: bad checkpoint line 1: written by scan")
    assert ck.read_bytes() == before


def test_scan_resume_matches(tmp_path, capsys):
    # five blocks of 2**16; the resume finds the first two done
    ck = tmp_path / "ck.jsonl"
    argv = ["scan", "--lo", "2", "--hi", "300000", "--jobs", "1"]
    code, full, _ = run(capsys, *argv, "--format", "json")
    run(capsys, *argv, "--checkpoint", str(ck))
    lines = ck.read_text().splitlines()
    assert len(lines) == 5
    ck.write_text("\n".join(lines[:2]) + "\n")
    code, resumed, _ = run(capsys, *argv, "--checkpoint", str(ck), "--format", "json")
    assert code == 0
    assert resumed == full


def test_scan_radical_chain(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "radical-chain", "--lo", "3", "--hi", "100000", "--jobs", "1")
    assert code == 0
    assert out.startswith("range: [3, 100000] parity=odd\ntested: 49999\nfound: 0\n")


def test_scan_radical_chain_violation_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(scan, "_radical_chain_hits", lambda a, b: [(9, "injected")] if a <= 9 <= b else [])
    code, out, _ = run(capsys, "scan", "--kind", "radical-chain", "--lo", "3", "--hi", "1000",
                       "--jobs", "1", "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [{"n": 9, "detail": "injected"}]


@pytest.mark.parametrize("argv", [
    ["--lo", "4000000000", "--hi", "4000200000"],  # above the hi ceiling
    ["--lo", "3", "--hi", "1000", "--parity", "even"],
])
def test_scan_radical_chain_rejected(capsys, argv):
    code, out, err = run(capsys, "scan", "--kind", "radical-chain", "--jobs", "1", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


# --- sk -------------------------------------------------------------------------


def test_sk_text(capsys):
    code, out, _ = run(capsys, "sk", "3*5*7")
    assert code == 0
    assert "S_1 = 71/105" in out
    assert "S_2 = 1/7" in out
    assert "S_3 = 1/105" in out
    assert "ok" in out


def test_sk_single(capsys):
    code, out, _ = run(capsys, "sk", "3")
    assert code == 0
    assert "S_1 = 1/3" in out


def test_sk_json(capsys):
    code, out, _ = run(capsys, "sk", "3*5*7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sums"] == [
        {"k": 1, "numerator": 71, "denominator": 105},
        {"k": 2, "numerator": 1, "denominator": 7},
        {"k": 3, "numerator": 1, "denominator": 105},
    ]
    assert doc["identity"]["holds"] is True
    rendered = out.strip()
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == rendered


def test_sk_computes_coefficients_once(monkeypatch, capsys):
    # the sums and the identity line share one pass over the primes
    import opnkit.arith as arith
    import opnkit.cli as cli

    calls = []
    original = arith.elementary_symmetric

    def spy(values):
        calls.append(tuple(values))
        return original(values)

    monkeypatch.setattr(arith, "elementary_symmetric", spy)
    monkeypatch.setattr(cli, "elementary_symmetric", spy)
    assert run(capsys, "sk", "3*5*7", "--format", "json") == (0, (GOLDEN / "sk.json").read_text(), "")
    assert calls == [(3, 5, 7)]
    calls.clear()
    code, out, _ = run(capsys, "sk", "3*5*7")
    assert code == 0 and "identity check: radical*(1 + sum S_k) = 192, prod(1 + p) = 192 -> ok" in out
    assert calls == [(3, 5, 7)]


def test_sk_past_the_str_digit_limit(capsys):
    # the 1229 odd primes up to 10007, the fewest whose radical has more than
    # 4300 digits, at the interpreter's own limit: text and JSON both exit 0
    primes = primes_up_to(10007)[1:]
    assert len(str(math.prod(primes[:-1]))) <= 4300 < len(digit_string(math.prod(primes)))
    text = "*".join(map(str, primes))
    code, out, err = run(capsys, "sk", text)
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("-> ok")
    code, out, err = run(capsys, "sk", text, "--format", "json")
    assert (code, err) == (0, "")
    assert f'"denominator":{digit_string(math.prod(primes))}' in out
    assert '"holds":true' in out


def test_sk_parse_error(capsys):
    code, _, err = run(capsys, "sk", "3**5")
    assert code == 2


@pytest.mark.parametrize("command, text", [("check", "3²"), ("check", "3^²"), ("sk", "3²")])
def test_superscript_digit_exits_2(capsys, command, text):
    code, out, err = run(capsys, command, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# hypothesis does not reset capsys between examples, so output is captured
# per call
@settings(max_examples=150)
@given(st.sampled_from(["check", "sk"]), _FACTOR_TEXT)
def test_factorization_text_gives_report_or_one_error_line(command, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, text])
    assert code in (0, 1, 2, 3)
    assert err.getvalue() == "" or (
        err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    )


# Values for every option pinned in test_api_surface.OPTIONS: in range, 0,
# negative and one past each ceiling, yet cheap to run.  `--trials` and
# `--limit` are always given, so no suite runs its default size, and
# `--jobs` always, so no scan starts a pool.
_SCAN_RANGES = [(lo, lo + span) for lo in (-1, 0, 1, 2, 3, 10**8, 10**9 - 4999) for span in (-1, 0, 4999)] + [
    (PERFECT_HI_MAX - 10, PERFECT_HI_MAX + 1),
    (RADICAL_CHAIN_HI_MAX - 10, RADICAL_CHAIN_HI_MAX + 1),
    (2, MAX_SPAN + 2),
]
_TEXTS = ["3^2*5*7^2", "3", "2^2*7", "3^4*5^2*7*11", HUGE_WELL_FORMED, "1", "0", "-3", "9", "x", "3²", ""]
_VALUES = {
    "bounds": {
        "-r": st.sampled_from([-1, 0, 1, 2, 9, 50, BOUNDS_R_MAX + 1]),
        "--digits": st.none() | st.sampled_from([-1, 0, 1, 50, 300, BOUNDS_DIGITS_MAX + 1]),
    },
    "check": {"factorization": st.sampled_from(_TEXTS)},
    "verify": {
        "suite": st.sampled_from(SUITES),
        "--trials": st.sampled_from([-1, 0, 1, 20]),
        "--seed": st.none() | st.sampled_from([-1, 0, 7, 2**64]),
        "--limit": st.sampled_from([-1, 0, 2, 3, 1000, 10**4, CHAIN_LIMIT_MAX + 1]),
    },
    "scan": {
        "--kind": st.none() | st.sampled_from(["perfect", "radical-chain"]),
        ("--lo", "--hi"): st.sampled_from(_SCAN_RANGES),
        "--parity": st.none() | st.sampled_from(["all", "odd", "even"]),
        "--jobs": st.sampled_from([-1, 0, 1]),
        "--checkpoint": st.none() | st.sampled_from(["fresh", "missing"]),
    },
    "sk": {"factorization": st.sampled_from(_TEXTS)},
}
for _values in _VALUES.values():
    _values["--format"] = st.none() | st.sampled_from(["text", "json"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_VALUES)))
    argv = [command]
    for key, values in _VALUES[command].items():
        value = draw(values)
        if value is None:
            continue
        names, value = (key, value) if isinstance(key, tuple) else ((key,), (value,))
        for name, v in zip(names, value):
            argv += [name, str(v)] if name.startswith("-") else [str(v)]
    return argv


def test_argv_values_cover_every_option():
    got = {command: {n for key in values for n in (key if isinstance(key, tuple) else (key,))}
           for command, values in _VALUES.items()}
    assert got == {command: set(options) for command, options in OPTIONS.items()}


@settings(max_examples=120, deadline=None)
@given(_argv())
def test_argument_vectors_exit_0_to_4_with_at_most_one_stderr_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"fresh": os.path.join(tmp, "ck"), "missing": os.path.join(tmp, "missing", "ck")}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) if prev == "--checkpoint" else a for prev, a in zip(["", *argv], argv)])
    assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
    assert err.getvalue() == "" or (err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1), argv


@pytest.fixture
def str_digit_limit():
    """Set the interpreter's int-to-str digit limit; restored afterwards."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_big_ints_render_past_str_digit_limit(capsys, str_digit_limit):
    # radical*(1 + sum S_k) over 300 primes has about 1100 digits, and 4^1100
    # about 660: both past a limit of 640, where str() and json.dumps refuse
    sk = "*".join(map(str, primes_up_to(2100)[1:301]))
    commands = [["bounds", "-r", "1100", "--digits", "10"], ["sk", sk]]
    outputs = []
    for limit in (640, 0):  # 0 lifts the limit
        str_digit_limit(limit)
        outputs.append([run(capsys, *argv, *fmt) for argv in commands for fmt in ([], ["--format", "json"])])
    assert outputs[0] == outputs[1]
    assert all(code == 0 and err == "" for code, _, err in outputs[0])
    assert json.loads(outputs[0][1][1])["n_upper_bound"]["log2"] == 4**1100


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_parse_refuses_numbers_past_str_digit_limit(capsys, str_digit_limit):
    str_digit_limit(640)
    code, out, err = run(capsys, "check", "3^2*" + "1" * 641)
    assert (code, out) == (2, "")
    assert err == "error: a prime factor has more than 640 digits (at position 4)\n"
    code, _, err = run(capsys, "check", "3^" + "1" * 641 + "*5")
    assert code == 2 and "an exponent has more than 640 digits" in err
    # a run at the limit is read: the 640-digit repunit is composite
    code, _, err = run(capsys, "check", "3^2*" + "1" * 640)
    assert code == 2 and err.startswith("error: composite factor 1111")


# --- canonical output -----------------------------------------------------------


@pytest.mark.parametrize("name, code, argv", [
    ("check", 1, ["check", "3^2*5*7^2"]),
    ("bounds", 0, ["bounds", "-r", "9", "--digits", "50"]),
    ("sk", 0, ["sk", "3*5*7"]),
    ("verify_gmhm", 0, ["verify", "gmhm", "--trials", "20", "--seed", "7"]),
])
def test_canonical_json_matches_golden(capsys, name, code, argv):
    assert run(capsys, *argv, "--format", "json") == (code, (GOLDEN / f"{name}.json").read_text(), "")


# --- internal errors --------------------------------------------------------------


def test_unexpected_exception_exits_5(monkeypatch, capsys):
    # a crash is not a verdict: it must not exit 1, the Refuted code
    import opnkit.cli as cli

    def broken(r, precision_bits):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "bounds_report", broken)
    code, out, err = run(capsys, "bounds", "-r", "9")
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


@pytest.mark.parametrize("argv", [
    ["sk", "3*5*7"],  # short: the write fails at main's flush
    ["bounds", "-r", "20000"],  # a 12041-digit line: the write fails inside print
    ["--help"],  # argparse writes the help, then exits from inside parse_args
])
def test_closed_stdout_exits_141(argv):
    # a reader that closed the pipe, as `| head` does, is not an internal error;
    # stdout is block-buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "opnkit", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_broken_pipe_elsewhere_exits_5():
    # a BrokenPipeError while stdout is still open is not the reader's doing
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = (
        "import sys\n"
        "from opnkit import cli\n"
        "def broken(args):\n"
        "    raise BrokenPipeError(32, 'Broken pipe')\n"
        "cli._cmd_sk = broken\n"
        "sys.exit(cli.main(['sk', '3*5*7']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 5
    assert proc.stdout == b""
    assert proc.stderr == b"internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
