"""The benchmark tracer (``perfbench/spans.py``) looks up each traced
function by name with no default, so a renamed or deleted function breaks
every traced benchmark run; and the workloads and oracles call the public
API by name.  This loads the tracer's table without writing anything next
to it, reads the other two files as text, and checks every name."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _resolve(dotted):
    """The object a dotted ``latreg.`` path names, importing submodules on
    the way; None when some part is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        if not hasattr(obj, parts[i]):
            try:
                importlib.import_module(".".join(parts[: i + 1]))
            except ImportError:
                return None
        obj = getattr(obj, parts[i], None)
    return obj


def test_benchmark_public_names_exist():
    used = set()
    for name in ("workloads.py", "oracles.py"):
        text = (PERFBENCH / name).read_text()
        used |= set(re.findall(r"\blatreg(?:\.[A-Za-z_]\w*)+", text))
    assert "latreg.kernel_lattice" in used
    assert [name for name in sorted(used) if _resolve(name) is None] == []
