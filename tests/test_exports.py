"""The package's lazy export table against the submodules' ``__all__``,
and the independence of the test oracles from the package.

``floquet_forge`` resolves ``floquet_forge.<name>`` through ``_EXPORTS``
instead of importing every layer up front, so the table is a second copy of
each submodule's public names and can drift from it.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import floquet_forge


def test_exports_equal_union_of_submodule_all():
    union = {}
    for sub in floquet_forge._SUBMODULES:
        mod = importlib.import_module(f"floquet_forge.{sub}")
        for name in mod.__all__:
            assert name not in union, f"{name} is public in two modules"
            union[name] = sub
    assert floquet_forge._EXPORTS == union
    for name, sub in union.items():
        assert getattr(floquet_forge, name) is getattr(
            sys.modules[f"floquet_forge.{sub}"], name)


def test_package_import_loads_no_layer():
    code = ("import sys, floquet_forge\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('floquet_forge.')))\n")
    src = str(Path(floquet_forge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracles_import_nothing_from_the_package():
    # an oracle that reuses package code is no independent check of it
    for path in sorted((Path(__file__).parent / "oracles").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "floquet_forge", (
                    f"{path.name} imports {name}")
