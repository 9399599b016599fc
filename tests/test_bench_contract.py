"""The benchmark calls opnkit functions by name.

`perfbench/tracer.py` lists them in TARGETS and `install()` looks each one
up with a bare getattr, so renaming or deleting one breaks the traced run.
`perfbench/worker.py` calls them with keyword arguments, so renaming or
deleting a keyword breaks every run.  `perfbench/inputs.py` sets the digits
of its bound tables, which must stay within the CLI's ceiling, and spells
its candidates in ways the parser must keep reading.  `perfbench/run.py`
fails a traced run when one of its LAYER_SPANS rows gets no span, so every
row must stay reachable.  The tracer and the inputs are loaded from their
files, and the worker and run.py are only parsed; nothing under perfbench/
is changed.
"""

import ast
import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
INPUTS = TRACER.parent / "inputs.py"


def load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load(TRACER).TARGETS
    assert targets
    for modname, attr, _name, _tagger in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


WORKER = TRACER.parent / "worker.py"
# worker.py binds `ok` to the opnkit package and `scan_mod` to opnkit.scan
WORKER_MODULES = {"ok": "opnkit", "scan_mod": "opnkit.scan"}


def _worker_target(node):
    """(module, attribute) for an `ok.<name>` or `scan_mod.<name>` node, reached
    as a bare name (`ok.x`) or as an attribute (`self.ok.x`); else None."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    base_name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
    if base_name not in WORKER_MODULES:
        return None
    return WORKER_MODULES[base_name], node.attr


def _worker_calls():
    """(module, attribute, positional count, keyword names) of every call the
    worker makes into opnkit, directly or through its `timed(fn, ...)` helper."""
    for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        target, args = _worker_target(node.func), node.args
        if target is None and isinstance(node.func, ast.Name) and node.func.id == "timed" and args:
            target, args = _worker_target(args[0]), args[1:]
        if target is not None:
            yield (*target, len(args), [kw.arg for kw in node.keywords])


def test_worker_names_resolve():
    found = [
        target
        for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8")))
        if (target := _worker_target(node)) is not None
    ]
    assert {module for module, _ in found} == set(WORKER_MODULES.values())
    for module, attr in found:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_worker_keywords_bind():
    passed: dict[str, set] = {}
    for module, attr, n_args, keywords in _worker_calls():
        fn = getattr(importlib.import_module(module), attr)
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
        passed.setdefault(attr, set()).update(keywords)
    assert {"trials", "seed", "limit"} <= passed["run_verify_suite"]
    assert {"jobs", "checkpoint"} <= passed["scan_perfect"]
    assert "jobs" in passed["scan_radical_chain"]


def test_bench_tables_within_digits_ceiling():
    # `opnkit bounds` refuses more digits than BOUNDS_DIGITS_MAX; every table
    # the benchmark renders must stay below it
    from opnkit.bounds import BOUNDS_DIGITS_MAX

    assert max(digits for _, digits in load(INPUTS)._TABLE_STRATA) <= BOUNDS_DIGITS_MAX


def test_bench_candidates_parse():
    # shuffled, spaced, split and `p^1` spellings all read as the factorization
    # they render to
    from opnkit.arith import parse_factorization, render

    inputs = load(INPUTS)
    for seed in (1, 2, 3):
        for text in inputs.audit_inputs(seed, "full")["candidates"]:
            f = parse_factorization(text)
            assert parse_factorization(render(f)) == f, text


RUN = TRACER.parent / "run.py"


def layer_spans() -> dict:
    """run.py's LAYER_SPANS, read from its source without importing run.py."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYER_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no LAYER_SPANS")


def test_traced_passes_fill_every_layer_row(tmp_path):
    # one small pass of each family, called as the worker calls opnkit; each
    # row whose span wraps an opnkit function needs a span in its family
    # (constraints.json is the worker's own span, around its JSON rendering)
    import opnkit

    tracer_module = load(TRACER)
    traced = {name for _, _, name, _ in tracer_module.TARGETS}
    tracer = tracer_module.Tracer()
    with tracer.active("audit"):
        for text in ("3^2*5*7^2", "3^4*5^2*7*11^2*13"):
            opnkit.audit(opnkit.parse_factorization(text)).to_json_dict()
        for suite in ("lift", "gmhm", "bounds", "recip", "recip-refined"):
            opnkit.run_verify_suite(suite, trials=3)
    with tracer.active("refine"):
        opnkit.bounds_report(9, 128).to_json_dict(20)
        opnkit.compare_rational_to_bound(Fraction(100), "radical", 3)
    with tracer.active("scan"):
        opnkit.scan_perfect(2, 5000, "all", jobs=1)
        opnkit.scan_perfect(10**8, 10**8 + 4999, "all", jobs=1)
        opnkit.scan_perfect(10**8, 10**8 + 4999, "odd", jobs=1)
        opnkit.scan_perfect(2, 5000, "all", jobs=1, checkpoint=str(tmp_path / "scan.ckpt"))
        opnkit.scan_radical_chain(3, 5001, jobs=1)
        opnkit.run_verify_suite("chain", limit=1000)
    rows = {row: (family, span, tag) for row, (family, span, tag, _) in layer_spans().items() if span in traced}
    assert len(rows) == len(layer_spans()) - 1
    assert [row for row, key in rows.items() if key not in tracer.stats] == []
