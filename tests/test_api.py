"""The public export list, and the names the benchmark's tracer binds in the package."""

import importlib
import sys
from pathlib import Path

import rtbuildup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves_once():
    names = rtbuildup.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rtbuildup, name)] == []


def test_every_benchmark_binding_resolves(monkeypatch):
    """Each (module, attribute) of ``perfbench/spans.BINDINGS`` exists; spans.py is only read."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    assert len(spans.BINDINGS) > 0
    missing = [
        (module, attr)
        for module, attr, _span, _hook in spans.BINDINGS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
