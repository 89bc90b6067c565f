"""Every exported, re-exported and traced name resolves.

A deleted function must take its names with it: from the module's
`__all__`, from the package's imports and from the benchmark tracer's
table, whose `Tracer.install` otherwise fails on the first traced run.

A weighting carries its graph, so no public function takes a graph beside a
weighting: a second graph could disagree with `w.graph`.

No module imports a name it never uses, unless its `__all__` re-exports it.

`rng` owns the stream format: no other module or script decodes a draw by
hand (the constant 2**-53) or derives stream seeds from MASK64.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
import typing
from pathlib import Path

import pytest

import walklab
from walklab.graphs import Graph
from walklab.weighting import EdgeWeighting

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


@pytest.mark.parametrize("name", MODULES)
def test_no_function_takes_a_graph_beside_a_weighting(name):
    module = importlib.import_module(f"walklab.{name}")
    both = [
        attr
        for attr, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not attr.startswith("_")
        and {Graph, EdgeWeighting} <= {t for p, t in typing.get_type_hints(fn).items() if p != "return"}
    ]
    assert both == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(imported - used - exported)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    # the package's __init__ imports only to re-export, so it is not checked
    assert _unused_imports(Path(walklab.__file__).with_name(f"{name}.py")) == []


_PURE = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.operator, ast.unaryop)


def _stream_format_uses(path: Path) -> list[str]:
    """Where a file names MASK64 or writes a constant equal to 2**-53."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
        if "MASK64" in names or "MASK64" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"{path.name}:{node.lineno} MASK64")
        elif isinstance(node, (ast.BinOp, ast.Constant)) and all(isinstance(n, _PURE) for n in ast.walk(node)):
            if eval(compile(ast.Expression(node), path.name, "eval"), {"__builtins__": {}}) == 2.0**-53:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "path",
    [Path(walklab.__file__).with_name(f"{name}.py") for name in MODULES if name != "rng"]
    + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda path: path.name,
)
def test_only_rng_decodes_draws_and_derives_stream_seeds(path):
    assert _stream_format_uses(path) == []


def test_the_stream_format_check_finds_the_uses_in_rng():
    uses = _stream_format_uses(Path(walklab.__file__).with_name("rng.py"))
    assert any(use.endswith("MASK64") for use in uses) and any(use.endswith("2.0 ** (-53)") for use in uses)
