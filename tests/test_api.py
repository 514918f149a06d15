"""The public export list, the names the benchmark's tracer binds in the package, and the oracles' independence."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import rtbuildup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves_once():
    names = rtbuildup.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rtbuildup, name)] == []


# kept in their modules only for the benchmark's tracer; tests/test_tracer_only.py tests them
TRACER_ONLY = {
    ("scattering", "transmission_scan"),
    ("scattering", "ScanResult"),
    ("scattering", "PeakSeed"),
    ("scattering", "POINTS_PER_DECADE"),
    ("scattering", "_transfer_entries"),
    ("resonances", "refine_pole"),
    ("resonances", "winding_number"),
    ("resonances", "gamow_state"),
    ("resonances", "PoleConvergenceError"),
}


def test_tracer_only_names_stay_in_their_modules_and_out_of_the_exports():
    assert {name for _module, name in TRACER_ONLY}.isdisjoint(rtbuildup.__all__)
    modules = {module: importlib.import_module(f"rtbuildup.{module}") for module, _name in TRACER_ONLY}
    assert [(module, name) for module, name in TRACER_ONLY if not hasattr(modules[module], name)] == []


def refuse_tracer_only_functions(monkeypatch):
    """Make each ``TRACER_ONLY`` function raise, in every loaded rtbuildup module that holds it; return their names."""
    def refuse(*args, **kwargs):
        raise AssertionError("a tracer-only function ran")

    patched = set()
    for module in [m for n, m in sys.modules.items() if n == "rtbuildup" or n.startswith("rtbuildup.")]:
        for _home, name in TRACER_ONLY:
            if inspect.isfunction(getattr(module, name, None)):
                monkeypatch.setattr(module, name, refuse)
                patched.add(name)
    return patched


def test_only_test_tracer_only_names_a_tracer_only_name():
    """No other test module reaches a ``TRACER_ONLY`` name: by import, attribute or ``monkeypatch`` target string.

    So deleting those names and ``test_tracer_only.py`` leaves every other test as it is.
    """
    names = {name for _module, name in TRACER_ONLY}
    used = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        if path.name in ("test_api.py", "test_tracer_only.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value.rsplit(".", 1)[-1]  # "rtbuildup.resonances.name" or "name"
            else:
                continue
            if name in names:
                used.append((path.name, name))
    assert used == []


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


# re-imports that no code of their module reads, kept because the benchmark's tracer
# patches them there (perfbench/spans.BINDINGS)
TRACED_REIMPORTS = {
    ("analysis.py", "stationary_wave"),
    ("resonances.py", "_transfer_entries"),
    ("resonances.py", "transmission_scan"),
}


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
