"""The public export list, the names the benchmark's tracer binds in the package, and the oracles' independence."""

import ast
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


def test_reference_oracles_import_nothing_from_the_package():
    """``tests/oracles.py`` stays coded apart from rtbuildup: it imports no module of the package."""
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "mpmath" in names
    assert [name for name in names if name.split(".")[0] == "rtbuildup"] == []
