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


# a re-import that no code of its module reads, kept because the benchmark's tracer
# patches it there (perfbench/spans.BINDINGS)
TRACED_REIMPORTS = {("analysis.py", "stationary_wave")}


def test_no_module_imports_a_name_it_never_reads():
    """Every name a package module (but ``__init__.py``) or a test module imports is read in it."""
    here = Path(__file__).resolve().parent
    package = Path(rtbuildup.__file__).resolve().parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"] + sorted(here.glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, name) for name in imported if name not in read]
    assert sorted(set(unread) - TRACED_REIMPORTS) == []
    assert set(unread) >= TRACED_REIMPORTS
