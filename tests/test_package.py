import ast
import builtins
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import torbif

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_public_names_resolve_once():
    # a stale entry breaks `from torbif import *`
    assert len(torbif.__all__) == len(set(torbif.__all__))
    missing = [name for name in torbif.__all__ if not hasattr(torbif, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    # pyproject declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read by the annotations of ``tree``."""
    annotations = [
        n.annotation if isinstance(n, (ast.arg, ast.AnnAssign)) else n.returns
        for n in ast.walk(tree)
        if isinstance(n, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    annotations = [a for a in annotations if a is not None]
    # a quoted annotation names its types inside a string
    quoted = [
        ast.parse(a.value, mode="eval") for a in annotations if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    return {n.id for a in [*annotations, *quoted] for n in ast.walk(a) if isinstance(n, ast.Name)}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "torbif").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_modules_use_every_import(path):
    # no linter runs here; a deletion that strands an import should still fail
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _module_bindings(body: list[ast.stmt]) -> set[str]:
    """Names bound at module level: imports, definitions and assignments, also under ``if TYPE_CHECKING``."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.If):
            bound |= _module_bindings(node.body) | _module_bindings(node.orelse)
    return bound


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "torbif").glob("*.py")), ids=lambda p: p.name)
def test_annotations_name_only_bound_names(path):
    # annotations are strings at run time, so an unimported name in one
    # fails only when something resolves it, as typing.get_type_hints does
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_annotation_names(tree) - _module_bindings(tree.body) - set(dir(builtins))) == []


# The layer modules the benchmark tracer looks up in sys.modules after `import torbif.cli`.
LAYERS = ("intlat", "torusrep", "eulerring", "spectra", "bifurcation", "problemfile", "corroborate", "oracle", "cli")

COLD_START_CHILD = """\
import contextlib, io, sys, types
import torbif.cli as cli

LAZY = ("corroborate", "oracle")

def unrun():
    return sorted(n for n in LAZY if type(sys.modules[f"torbif.{n}"]) is not types.ModuleType)

state = {
    "stdlib": sorted(m for m in ("dataclasses", "inspect", "pathlib") if m in sys.modules),
    "layers": sorted(n for n in sys.argv[2:] if f"torbif.{n}" in sys.modules),
    "after_import": unrun(),
    # `import torbif.oracle` then binds the package, so torbif.oracle must be set on it
    "on_package": all(getattr(sys.modules["torbif"], n) is sys.modules[f"torbif.{n}"] for n in LAZY),
}
commands = {
    "after_report": ["report", sys.argv[1], "--format", "json"],
    "after_selftest": ["selftest", "--trials", "1"],
}
for name, argv in commands.items():
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    state[name] = unrun()
    state[f"{name}_pathlib"] = "pathlib" in sys.modules
print(repr(state))
"""

ORACLE_FIRST_CHILD = """\
import sys, types
import torbif.oracle as oracle
import torbif.cli as cli
import torbif
assert cli.oracle is oracle is torbif.oracle is sys.modules["torbif.oracle"]
assert type(oracle) is types.ModuleType
print("one module")
"""


def _fresh_interpreter(code: str, *args: str) -> str:
    # -S: no site-specific start-up imports, so the child holds only what torbif loads
    src = str(Path(torbif.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    return proc.stdout.splitlines()[-1]


def test_cold_start_defers_the_selftest_and_numerics_layers():
    fixture = str(Path(torbif.__file__).resolve().parent / "fixtures" / "sphere_p1.json")
    state = ast.literal_eval(_fresh_interpreter(COLD_START_CHILD, fixture, *LAYERS))
    # neither the import nor a report loads dataclasses, inspect or pathlib
    assert state["stdlib"] == [] and not state["after_report_pathlib"]
    assert state["layers"] == sorted(LAYERS) and state["on_package"]
    # registered, but their bodies have not run; a report leaves them so, a selftest runs oracle
    assert state["after_import"] == state["after_report"] == ["corroborate", "oracle"]
    assert state["after_selftest"] == ["corroborate"]


def test_a_layer_imported_before_the_cli_is_reused():
    assert _fresh_interpreter(ORACLE_FIRST_CHILD) == "one module"


def test_no_module_imports_dataclasses():
    # dataclasses pulls inspect into every start; the value classes are NamedTuples
    importers = []
    for path in sorted((ROOT / "src" / "torbif").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(n.split(".")[0] == "dataclasses" for n in names):
                importers.append(path.name)
    assert importers == []


# Public functions that nothing in src/torbif names, each kept for a reason.
UNNAMED_PUBLIC = {
    "oracle.star_dimension_flipped",  # the mutation gate's documented fake star rule
    "oracle.tensor_sign_flipped",  # the mutation gate's documented fake tensor rule
    "corroborate.residual",  # the model's residual for callers; Newton calls _residual to share grid values with its Jacobian
    "oracle.SelfTestReport.suite",  # a selftest result looked up by suite name, for callers of run_selftest
    "intlat.TorusSubgroup.annihilator",  # read by perfbench/tracer.py; deleted with ROADMAP item 5
}


def _public_functions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and public method."""
    for node in tree.body:
        defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{d.name}", d) for d in node.body if isinstance(d, ast.FunctionDef)]
        for qualname, d in defs:
            if not d.name.startswith("_"):
                yield qualname, d


def _names(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_function_is_named_in_the_package():
    # library code is what a command runs: a function only tests call belongs in tests/
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "src" / "torbif").glob("*.py"))
        if p.name != "__init__.py"
    }
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unnamed = {
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, d in _public_functions(tree)
        if named[d.name] == _names(d)[d.name]
    }
    assert unnamed == UNNAMED_PUBLIC
