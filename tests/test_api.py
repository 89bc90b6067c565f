"""Every exported, re-exported and traced name resolves.

A deleted function must take its names with it: from the module's
`__all__`, from the package's imports and from the benchmark tracer's
table, whose `Tracer.install` otherwise fails on the first traced run.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import walklab

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(walklab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"walklab.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(walklab.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(f"walklab.{module}"), attr), (module, attr)
        assert hasattr(walklab, attr), attr


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    try:
        assert tracer.TRACED
        for span, owner, attr, _ in tracer.TRACED:
            # Tracer.install reads owner.__dict__[attr]
            assert attr in vars(owner), span
    finally:
        sys.modules.pop("tracer", None)
