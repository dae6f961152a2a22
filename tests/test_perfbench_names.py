"""The benchmark tracer (``perfbench/spans.py``) looks up each traced
function by name with no default, so a renamed or deleted function breaks
every traced benchmark run.  This loads the tracer's table without writing
anything next to it and checks every name it lists."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"latreg.{module}.{name}"
        for module, name in spans.TRACED
        if not callable(getattr(importlib.import_module(f"latreg.{module}"), name, None))
    ]
    assert missing == []
