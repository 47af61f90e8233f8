"""Every name a module imports is used in that module, and every definition
of the package has a caller.

The repository has no linter; these stdlib-only checks stand in for the
unused-import rule on the package sources (except the re-exporting
__init__.py), the scripts and the tests, and for a dead-code rule on the
package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "gdrq").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT).as_posix(),
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Module-level definitions that stay with no caller in the package, and why.
KEPT_WITHOUT_CALLER = {
    "derive_run_seed": "the documented way to rerun run i of an ensemble on its own",
    "dense_matrix": "the dense reference that the operator and circuit tests compare against",
    "init_basis_state": "the public basis-state constructor, which the gate-by-gate oracles use",
}


def referenced(node: ast.AST) -> set[str]:
    """Names, attribute names and imported names that a node reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def uncalled(sources: dict[str, str], outside: set[str]) -> list[str]:
    """Module-level defs and classes of `sources` (module name -> text) that no
    other top-level statement of any of them reads, and that `outside` does not
    name either.  An import statement reads nothing, so a re-export or an
    unused import keeps nothing alive."""
    statements = [
        (module, node) for module, text in sources.items() for node in ast.parse(text).body
    ]
    reads = [
        set() if isinstance(node, (ast.Import, ast.ImportFrom)) else referenced(node)
        for _, node in statements
    ]
    found = []
    for i, (module, node) in enumerate(statements):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in outside:
            continue
        if not any(node.name in names for j, names in enumerate(reads) if j != i):
            found.append(f"{module}: {node.name}")
    return found


def bench_targets() -> set[str]:
    """The module attributes that bench/tracing.py wraps: its TARGETS tuple."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {target[2] for target in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py has no TARGETS tuple")


def test_detects_an_uncalled_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef lonely():\n    return lonely()\n",
        "b": "from a import lonely, used\n\nclass Kept:\n    x = used()\n",
    }
    assert uncalled(sources, set()) == ["a: lonely", "b: Kept"]
    assert uncalled(sources, {"Kept"}) == ["a: lonely"]


def test_every_definition_has_a_caller():
    """Each module-level def and class of the package is read by other package
    code (the re-exports of __init__.py do not count), by a script, or by a
    bench/tracing.py target; the rest are listed in KEPT_WITHOUT_CALLER."""
    package = ROOT / "src" / "gdrq"
    sources = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(package.glob("*.py"))
        if p.name != "__init__.py"
    }
    scripts = set().union(
        *(referenced(ast.parse(p.read_text(encoding="utf-8"))) for p in ROOT.glob("scripts/*.py"))
    )
    found = uncalled(sources, scripts | bench_targets())
    # an entry of KEPT_WITHOUT_CALLER that gains a caller must leave the list
    assert sorted(entry.partition(": ")[2] for entry in found) == sorted(KEPT_WITHOUT_CALLER), found
