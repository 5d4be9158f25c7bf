"""Every function the benchmark's span tracer wraps exists in the program.

``perfbench/spans.py`` patches ``robustci.<module>.<function>`` by name for
each entry of its ``BOUNDARIES``; a renamed or removed function would only
show up as a failed traced run.  The tracer module is loaded from its file,
without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves_to_a_callable(monkeypatch):
    boundaries = load_spans(monkeypatch).BOUNDARIES
    assert boundaries
    missing = [
        f"{module}.{function}"
        for module, function, _layer, _hook in boundaries
        if not callable(getattr(importlib.import_module(f"robustci.{module}"), function, None))
    ]
    assert not missing, f"perfbench/spans.py wraps functions robustci lacks: {missing}"
