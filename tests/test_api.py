"""Every exported and traced name resolves, and program code reaches it.

A deleted function must take its names with it: from the module's
`__all__` and from the benchmark tracer's table, whose `Tracer.install`
otherwise fails on the first traced run.  An exported name that no program
code (the package, `perfbench/`) reaches must be on
REFERENCE_ONLY, with the reason it stays: the acceptance criterion it serves,
or a test that uses it as a reference.

Every exception class of the package derives from `graphs.WalklabError`,
the one class `cli.main` catches beside OSError for exit code 2.

A weighting carries its graph, so no public function takes a graph beside a
weighting: a second graph could disagree with `w.graph`.

No module imports a name it never uses, unless its `__all__` re-exports it.

`rng` owns the stream format: no other module decodes a draw by
hand (the constant 2**-53) or derives stream seeds from MASK64.  `walks`
draws only through `rng.splitmix_block`, so it alone decides how a walk's
draws are blocked: apart from the reference `walks.step`, it makes no
`SplitMix64` and calls none of its drawing methods.  Likewise
`chains` owns the half-mass limit 1/2 + 1e-12 of conductance, `weighting`
the Lipschitz slack 1 + 1e-12, and `graphs` the comment rule of the text
inputs (the split on "#").

Each module states the range of eps (a chained `0 <= eps <= 1`) at most
once, in its own `_check_eps`.

Every public method, property and field of an exported class is used, as an
attribute or a keyword, by program code.

Every module parses as Python 3.10, the floor `pyproject.toml` declares.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import typing
from pathlib import Path

import pytest

import walklab
from walklab.graphs import Graph, WalklabError
from walklab.weighting import EdgeWeighting

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(walklab.__path__))
PKG = Path(walklab.__file__).parent
PROGRAM = sorted(PKG.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


FLOOR_LINE = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
PYTHON_FLOOR = tuple(map(int, FLOOR_LINE.groups()))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_parses_at_the_python_floor(name):
    """Syntax only: a stdlib function added after the floor is not caught here."""
    ast.parse((PKG / f"{name}.py").read_text(), feature_version=PYTHON_FLOOR)


def test_the_floor_check_rejects_newer_syntax():
    assert PYTHON_FLOOR == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"walklab.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


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


def _exports(path: Path, text: str | None = None) -> list[str]:
    for node in ast.parse(path.read_text() if text is None else text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(_exports(path)))


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    assert _unused_imports(Path(walklab.__file__).with_name(f"{name}.py")) == []


_PURE = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.operator, ast.unaryop)


def _constant_uses(path: Path, value: float, text: str | None = None) -> list[str]:
    """Where a file (or `text` in its place) writes a number expression equal to `value`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text() if text is None else text)):
        if isinstance(node, (ast.BinOp, ast.Constant)) and all(isinstance(n, _PURE) for n in ast.walk(node)):
            if eval(compile(ast.Expression(node), path.name, "eval"), {"__builtins__": {}}) == value:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def _stream_format_uses(path: Path) -> list[str]:
    """Where a file names MASK64 or writes a constant equal to 2**-53."""
    found = _constant_uses(path, 2.0**-53)
    for node in ast.walk(ast.parse(path.read_text())):
        names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
        if "MASK64" in names or "MASK64" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"{path.name}:{node.lineno} MASK64")
    return found


@pytest.mark.parametrize(
    "path",
    [Path(walklab.__file__).with_name(f"{name}.py") for name in MODULES if name != "rng"],
    ids=lambda path: path.name,
)
def test_only_rng_decodes_draws_and_derives_stream_seeds(path):
    assert _stream_format_uses(path) == []


_STREAM_CALLS = {"SplitMix64", "stream", "next_u64", "next_float", "randrange", "block_u64", "shuffle"}


def _stream_calls(path: Path, text: str | None = None, reference: str = "step") -> list[str]:
    """Where a file (or `text` in its place), outside its function named
    `reference`, makes a SplitMix64 or draws from one by a method call."""
    tree = ast.parse(path.read_text() if text is None else text)
    skip = {id(node) for top in tree.body if getattr(top, "name", None) == reference for node in ast.walk(top)}
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in skip
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in _STREAM_CALLS
    ]


def test_walks_draws_only_through_splitmix_block():
    assert _stream_calls(PKG / "walks.py") == []


def test_the_stream_format_check_finds_the_uses_in_rng():
    uses = _stream_format_uses(Path(walklab.__file__).with_name("rng.py"))
    assert any(use.endswith("MASK64") for use in uses) and any(use.endswith("2.0 ** (-53)") for use in uses)


HALF_MASS = 0.5 + 1e-12
LIPSCHITZ_SLACK = 1.0 + 1e-12


def _comment_splits(path: Path, text: str | None = None) -> list[str]:
    """Where a file (or `text` in its place) splits a string on "#"."""
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text() if text is None else text))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "split"
        and node.args
        and getattr(node.args[0], "value", None) == "#"
    ]


def _others(owner: str) -> list[Path]:
    return [path for path in PROGRAM if path != PKG / f"{owner}.py"]


@pytest.mark.parametrize("path", _others("chains"), ids=lambda path: path.name)
def test_only_chains_writes_the_half_mass_limit(path):
    assert _constant_uses(path, HALF_MASS) == []


@pytest.mark.parametrize("path", _others("weighting"), ids=lambda path: path.name)
def test_only_weighting_states_the_lipschitz_slack(path):
    assert _constant_uses(path, LIPSCHITZ_SLACK) == []


@pytest.mark.parametrize("path", _others("graphs"), ids=lambda path: path.name)
def test_only_graphs_cuts_comments_from_text_lines(path):
    assert _comment_splits(path) == []


def _eps_range_checks(path: Path, text: str | None = None) -> list[str]:
    """Where a file (or `text` in its place) writes a chained `lo <= eps <= hi`."""
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text() if text is None else text))
        if isinstance(node, ast.Compare)
        and [type(op) for op in node.ops] == [ast.LtE, ast.LtE]
        and "eps" in (getattr(node.comparators[0], "id", None), getattr(node.comparators[0], "attr", None))
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_module_states_the_eps_range_once(name):
    assert len(_eps_range_checks(PKG / f"{name}.py")) <= 1


def test_the_eps_range_check_finds_each_spelling():
    assert len(_eps_range_checks(PKG / "walks.py")) == len(_eps_range_checks(PKG / "oracle.py")) == 1
    for text in ("ok = 0.0 <= eps <= 1.0", "ok = Fraction(0) <= eps <= Fraction(1)", "ok = 0 <= spec.eps <= 1"):
        assert len(_eps_range_checks(PKG / "oracle.py", text)) == 1
    assert _eps_range_checks(PKG / "walks.py", "ok = 0.0 < eps <= 1.0") == []


def test_the_one_owner_checks_find_what_they_look_for():
    assert _constant_uses(PKG / "chains.py", HALF_MASS) != []
    assert _comment_splits(PKG / "graphs.py") != []
    robustness = PKG / "robustness.py"
    assert _constant_uses(robustness, LIPSCHITZ_SLACK, "rough = beta > sigma * (1.0 + 1e-12)") != []
    assert _constant_uses(robustness, HALF_MASS, "if mass > 0.5 + 1e-12:\n    pass") != []
    assert _comment_splits(robustness, "line = raw.split('#', 1)[0]") != []
    walks = PKG / "walks.py"
    assert _stream_calls(walks, reference="") != []  # `step` itself draws by next_float
    for text in ("rng = SplitMix64(seed)", "rng = SplitMix64.stream(seed, 0)", "z = rng.block_u64(64)",
                 "def walk(rng):\n    return rng.next_u64() % 3"):
        assert _stream_calls(walks, text) != [], text


# ---------------------------------------------------------------------------
# one error root


@pytest.mark.parametrize("name", MODULES)
def test_every_exception_class_derives_from_the_root(name):
    module = importlib.import_module(f"walklab.{name}")
    tree = ast.parse((PKG / f"{name}.py").read_text())
    classes = [vars(module)[node.name] for node in tree.body if isinstance(node, ast.ClassDef)]
    errors = [cls for cls in classes if issubclass(cls, BaseException)]
    assert [cls for cls in errors if not issubclass(cls, WalklabError)] == []


def test_cli_main_catches_only_the_root_and_oserror():
    tree = ast.parse((PKG / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(node.type) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert caught == ["(WalklabError, OSError)"]


# ---------------------------------------------------------------------------
# the public surface is reached by program code

# Exported names that no program code reaches, each with the reason it stays:
# the acceptance criterion it serves ("acceptance criterion N"), or a test
# that uses it as the reference an engine is checked against, by name.
# A name that only another entry uses is an entry too: it goes when that goes.
REFERENCE_ONLY = {
    "chains.cheeger_audit": "acceptance criterion 1: the Cheeger sandwich",
    "walks.extract_bias_matrix": "acceptance criterion 4: the dense reference for the O(m) phase bias",
    "walks.stationary_boost_audit": "acceptance criterion 5: the stationary boost",
    "walks.StationaryBoostReport": "acceptance criterion 5: what stationary_boost_audit returns",
    "robustness.prop311_check": "acceptance criterion 8: the bottleneck witness",
    "robustness.Prop311Report": "acceptance criterion 8: what prop311_check returns",
    "oracle.event_prob_exact": "acceptance criterion 10: the exact figure anchors",
    "oracle.schur_audit": "acceptance criterion 12: Schur convexity of the boost",
    "oracle.robin_hood_pair": "acceptance criterion 12: the pairs schur_audit is run on",
    "oracle.majorizes": "acceptance criterion 12: schur_audit's precondition, also asserted there",
    "walks.step": "the single-step reference the decoded choices, queued r's and bisected thresholds of `_walk` "
    "are tested against in test_biased_walk_replays_step_draw_for_draw",
    "walks.cover_run": "the single-trial entry point README documents, which "
    "test_phase_batches_of_any_width_play_each_trial_alone plays each batched trial against",
    "graphs.ball": "the BFS ball that test_bottleneck_witness_reads_the_distance_matrix checks prop311_check's "
    "witness against, also read by the set-valued Section 3 reference audit",
    "oracle.srw_event_prob": "the single-eps plain-walk pass each grid row's p is checked against in "
    "test_lemma_sweep_rows_match_per_query_audits",
    "oracle.optimal_tbrw_event_prob": "the single-eps biased pass each grid row's q* is checked against in "
    "test_lemma_sweep_rows_match_per_query_audits",
    "oracle.srw_expected_cover_exact": "the exact srw cover time from every start, which "
    "test_exact_cover_equals_the_tail_sum_of_the_cover_law checks the event DP's cover law against",
}

CRITERIA = {
    int(number)
    for number in re.findall(r"^def test_criterion_(\d+)_", (ROOT / "tests" / "test_acceptance.py").read_text(), re.M)
}


def _test_sources() -> dict[str, list[str]]:
    """The source of each test function in tests/, by name."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                found.setdefault(node.name, []).append("\n".join(lines[node.lineno - 1 : node.end_lineno]))
    return found


def _anchored(name: str, reason: str, tests: dict[str, list[str]]) -> bool:
    """Whether `reason` names an acceptance criterion the suite has, or a test
    whose source uses the export `name` ("module.attr")."""
    if any(int(number) in CRITERIA for number in re.findall(r"acceptance criterion (\d+)", reason)):
        return True
    attr = re.compile(rf"\b{name.split('.')[1]}\b")
    return any(attr.search(source) for test in re.findall(r"\btest_\w+", reason) for source in tests.get(test, ()))


def test_every_reference_only_reason_names_a_criterion_or_a_reference_test():
    tests = _test_sources()
    assert [name for name, reason in REFERENCE_ONLY.items() if not _anchored(name, reason, tests)] == []


def test_the_reason_check_rejects_a_reason_without_an_anchor():
    tests = _test_sources()
    assert not _anchored("chains.spectral_gap", "the mixing time ROADMAP directions 10 and 4 will call", tests)
    assert not _anchored("chains.spectral_gap", "acceptance criterion 13: no such criterion", tests)
    assert not _anchored("walks.step", "checked in test_exact_cover_cycle, which never calls it", tests)
    assert not _anchored("walks.step", "checked in test_no_such_test", tests)
    assert _anchored("walks.step", "checked in test_step_eps_one_follows_policy_exactly", tests)
    assert _anchored("chains.spectral_gap", "acceptance criterion 7: the gap endpoint", tests)


EXPORTS = {name: set(_exports(PKG / f"{name}.py")) for name in MODULES}


def _uses(path: Path) -> list[tuple[tuple[str, str], tuple[str, str] | None]]:
    """(exported name, holder) for each use in `path` of a name exported by a
    package module.  A use counts only in the defining module or in a file
    that imports the name (or its module) from there.  The holder is the
    exported definition of `path`'s own module that the use sits in, None
    for any other code."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == PKG else None
    names = {name: (own, name) for name in EXPORTS.get(own, ())}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("walklab")):
            source = (node.module or "").removeprefix("walklab").lstrip(".")
            for alias in node.names:
                if source:
                    names[alias.asname or alias.name] = (source, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    uses = []
    for stmt in tree.body:
        defined = getattr(stmt, "name", None) or next(
            (t.id for t in getattr(stmt, "targets", []) if isinstance(t, ast.Name)), None
        )
        holder = (own, defined) if defined in EXPORTS.get(own, ()) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                target = names[node.id]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                target = (modules[node.value.id], node.attr)
            else:
                continue
            if target[1] in EXPORTS.get(target[0], ()) and target != holder:
                uses.append((target, holder))
    return uses


def _unreached() -> set[str]:
    """Exported names no program code reaches: a use inside an unreached
    exported definition does not count."""
    uses = [use for path in PROGRAM for use in _uses(path)]
    dead = {(module, name) for module in MODULES for name in EXPORTS[module]}
    while True:
        live = dead & {target for target, holder in uses if holder not in dead}
        if not live:
            return {f"{module}.{name}" for module, name in dead}
        dead -= live


def test_every_exported_name_is_reached_by_program_code():
    assert all(REFERENCE_ONLY.values())
    assert _unreached() == set(REFERENCE_ONLY)


def test_the_surface_check_sees_a_name_used_only_by_another_dead_name():
    # majorizes is called inside oracle, but only by schur_audit
    uses = [use for use in _uses(PKG / "oracle.py") if use[0] == ("oracle", "majorizes")]
    assert uses == [(("oracle", "majorizes"), ("oracle", "schur_audit"))]


def _unused_members(path: Path, program: list[str], text: str | None = None) -> list[str]:
    """Public methods, properties and fields of the classes a module (or
    `text` in its place) exports that no source in `program` uses as an
    attribute or a keyword."""
    text = path.read_text() if text is None else text
    tree = ast.parse(text)
    exported = set(_exports(path, text))
    members = [
        (cls.name, getattr(node, "name", None) or node.target.id)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for node in cls.body
        if isinstance(node, ast.FunctionDef) or (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
    ]
    used = {
        getattr(node, "attr", None) or getattr(node, "arg", None)
        for source in program
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Attribute, ast.keyword))
    }
    return [f"{cls}.{name}" for cls, name in members if not name.startswith("_") and name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_every_member_of_an_exported_class_is_used_by_program_code(name):
    program = [path.read_text() for path in PROGRAM]
    unused = _unused_members(PKG / f"{name}.py", program)
    assert [member for member in unused if f"{name}.{member.split('.')[0]}" not in REFERENCE_ONLY] == []


def test_the_member_check_sees_a_member_no_program_code_uses():
    exporter = """__all__ = ["Report"]
class Report:
    gap: float
    spare: float
    def ok(self): ...
"""
    assert _unused_members(PKG / "chains.py", [exporter, "Report(gap=1.0).ok()"], exporter) == ["Report.spare"]
