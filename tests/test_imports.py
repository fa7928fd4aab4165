"""Module boundaries: no hklab module imports a private name of another
or a name it never uses, every definition in hklab has a caller, and
importing the CLI loads no module it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hklab


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(Path(hklab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hklab"
            ):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports what it re-exports
    unused = []
    for path in sorted(Path(hklab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}: {name}" for a in node.names
                           if (name := (a.asname or a.name).split(".")[0]) not in used]
    assert unused == []


def _named(node, enclosing, out):
    """Add to `out` each name, attribute or imported name under `node`
    that is not the name of a definition enclosing it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    name = getattr(node, "id", None) or getattr(node, "attr", None) or (
        node.name if isinstance(node, ast.alias) else None)
    if name and name not in enclosing:
        out.add(name)
    for child in ast.iter_child_nodes(node):
        _named(child, enclosing, out)


def test_every_definition_in_hklab_is_named_outside_its_own_body():
    # no code without a caller: each function, class and method is named in
    # src, tests, demos or bench, other than by itself; Python calls dunders
    package = Path(hklab.__file__).parent
    root = package.parent.parent
    named, defined = set(), set()
    for folder in ("src", "tests", "demos", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _named(tree, frozenset(), named)
            if path.parent == package:
                defined |= {f"{path.name}: {node.name}" for node in ast.walk(tree) if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")}
    assert sorted(d for d in defined if d.split(": ")[1] not in named) == []


def test_importing_the_cli_loads_neither_dataclasses_nor_rows():
    # hklab.rows is imported on first use by a run that takes dense rows
    src = Path(hklab.__file__).parent.parent
    probe = ("import sys, hklab.cli; "
             "print('dataclasses' in sys.modules, 'hklab.rows' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False False\n"
