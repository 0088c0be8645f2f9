"""Name resolution of the lazy package, and the independence of the test
oracles from the package.

``floquet_forge.<name>`` is found in the layers' own ``__all__``, imported
cheapest first, so each public name is declared once, in the module that
defines it; these tests pin that resolution and the layers a lookup loads.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floquet_forge


def test_submodule_names_resolve_through_the_package():
    owner = {}
    for sub in floquet_forge._SUBMODULES:
        mod = importlib.import_module(f"floquet_forge.{sub}")
        for name in mod.__all__:
            assert name not in owner, (
                f"{name} is public in {owner[name]} and {sub}")
            owner[name] = sub
    for name, sub in owner.items():
        assert getattr(floquet_forge, name) is getattr(
            sys.modules[f"floquet_forge.{sub}"], name)
    assert set(dir(floquet_forge)) == set(floquet_forge.__all__) | set(owner)
    with pytest.raises(AttributeError, match="no_such_name"):
        floquet_forge.no_such_name


def _used_names(path):
    """Names a file reads: loaded names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_public_name_has_a_reader():
    # a public name that neither the package, the benchmark nor an
    # acceptance criterion reads is code kept for no output
    root = Path(floquet_forge.__file__).resolve().parents[2]
    files = [*sorted((root / "src" / "floquet_forge").glob("*.py")),
             *sorted((root / "perfbench").glob("*.py")),
             root / "tests" / "test_acceptance.py"]
    used = set().union(*map(_used_names, files))
    unread = [f"{sub}.{name}" for sub in floquet_forge._SUBMODULES
              for name in importlib.import_module(
                  f"floquet_forge.{sub}").__all__
              if name not in used]
    assert unread == []


def test_each_exit_code_has_one_exception_type():
    # every exception class the package defines is named by an except
    # clause of cli.main: a class it does not name reaches an exit code
    # only through its base class, as a second name for that code
    pkg = Path(floquet_forge.__file__).resolve().parent
    defined = {node.name for path in sorted(pkg.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", getattr(base, "attr", ""))
                       .endswith(("Error", "Exception"))
                       for base in node.bases)}
    main = next(node for node in ast.parse((pkg / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name.id for node in ast.walk(main)
              if isinstance(node, ast.ExceptHandler)
              for name in ast.walk(node.type) if isinstance(name, ast.Name)}
    assert sorted(defined - caught) == []


def _loaded_by(attr):
    code = ("import sys, floquet_forge\n"
            f"floquet_forge.{attr}\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m.startswith(('floquet_forge.',\n"
            "                                       'scipy')))))\n")
    src = str(Path(floquet_forge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_lookup_loads_only_the_layers_it_needs():
    assert _loaded_by("main") == {"floquet_forge.errors",
                                  "floquet_forge.cli"}
    assert not any(m.startswith("scipy") for m in _loaded_by("BandGrid"))


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the thread count from /proc")
def test_in_process_blas_runs_on_one_thread():
    # conftest imports the package before numpy, so the package's BLAS pins
    # hold in the test process itself; an unpinned OpenBLAS would have
    # started one worker per core
    a = np.ones((1500, 1500))
    a @ a
    status = Path("/proc/self/status").read_text()
    assert re.search(r"^Threads:\s+(\d+)$", status, re.M).group(1) == "1"


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
