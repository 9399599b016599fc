"""The benchmark's traced mode wraps opnkit functions by name.

`perfbench/tracer.py` lists them in TARGETS and `install()` looks each one
up with a bare getattr, so renaming or deleting one breaks the traced run.
The tracer is loaded from its file; nothing under perfbench/ is changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracer().TARGETS
    assert targets
    for modname, attr, _name, _tagger in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
