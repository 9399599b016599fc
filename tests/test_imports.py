"""numpy is loaded only when a scan kernel runs.

Each probe runs in a fresh interpreter, because the test process itself
may already hold numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import contextlib, io, json, sys
import opnkit
from opnkit.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

codes = [
    run("check", "3^2*5*7^2", "--format", "json")[0],
    run("bounds", "-r", "9", "--digits", "20")[0],
    run("sk", "3*5*7")[0],
    run("verify", "gmhm", "--trials", "5")[0],
    run("verify", "chain", "--limit", "1000")[0],
]
numpy_before_scan = "numpy" in sys.modules
# 2^21 + 2^16 integers make two sieve segments, so jobs=2 uses the pool
scan = ("scan", "--lo", "2", "--hi", str((1 << 21) + (1 << 16)), "--format", "json")
jobs2 = run(*scan, "--jobs", "2")
jobs1 = run(*scan, "--jobs", "1")
print(json.dumps({
    "codes": codes,
    "numpy_before_scan": numpy_before_scan,
    "numpy_after_scan": "numpy" in sys.modules,
    "jobs1": jobs1,
    "jobs2": jobs2,
}))
"""


def run_probe(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_opnkit_leaves_numpy_unloaded():
    out = run_probe("import sys, opnkit; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_only_scan_loads_numpy():
    doc = json.loads(run_probe(PROBE).splitlines()[-1])
    assert doc["codes"] == [1, 0, 0, 0, 0]
    assert doc["numpy_before_scan"] is False
    assert doc["numpy_after_scan"] is True
    assert doc["jobs2"] == doc["jobs1"]
    code, report = doc["jobs1"]
    assert code == 0
    assert [v["n"] for v in json.loads(report)["violations"]] == [6, 28, 496, 8128]
