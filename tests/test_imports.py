"""Module boundaries: no hklab module imports a private name of another,
and importing the CLI loads no module it does not use."""

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
