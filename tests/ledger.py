"""Output ledger: the sha256 of every file the CLI emits for fixed configs.

The runs are the eight ``test_cli.py`` configs, a short L=6
``bench-return-rate``, a 16x16 ``gamma-scan``, a 16x16 dressed
``kspace-map``, and an order-4 ``derive-hamiltonian`` and a
``strong-drive`` at L=7.  Each runs as
``python -m floquet_forge.cli`` in a fresh process, so the package pins
BLAS before numpy loads, as it does for any CLI run.
``tests/golden/ledger.json`` records the digests, keyed ``run/file``
(manifests included), beside the numpy and scipy versions and the BLAS
pins they were made under.  ``tests/test_ledger.py`` reruns the configs and
names every file that moved.

Regenerate the ledger, when a change moves output bytes on purpose, with::

    PYTHONPATH=src python tests/ledger.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

import floquet_forge
from test_cli import CONFIGS, PAPER_BANDS

LEDGER = Path(__file__).resolve().parent / "golden" / "ledger.json"

RUNS = {name: (name, cfg) for name, (cfg, _) in CONFIGS.items()}
RUNS["bench-return-rate-L6"] = (
    "bench-return-rate",
    "units = J\nL = 6\nU = 3.0\ng = 3.0\nomega = 12.0\n"
    "t_final = 2.0\nsample_dt = 0.25\n")
RUNS["gamma-scan-16x16"] = (
    "gamma-scan",
    f"units = eV\nNx = 16\nNy = 16\n{PAPER_BANDS}"
    "omega = 3.63\nU_coulomb = 1.6\nprofile = constant\n"
    "kx_index = 8\nky_index = 8\n")
RUNS["kspace-map-dressed-16x16"] = (
    "kspace-map",
    f"units = eV\nNx = 16\nNy = 16\n{PAPER_BANDS}"
    "omega = 2.5\ng = 0.1\nquantity = dressed\n")
RUNS["derive-hamiltonian-order4-L7"] = (
    "derive-hamiltonian",
    "units = J\nL = 7\nU = 3.0\ng = 3.0\nomega = 12.0\norder = 4\n")
RUNS["strong-drive-L7"] = (
    "strong-drive",
    "units = J\nL = 7\nU = 3.0\ng = 3.0\nomega = 12.0\njmax = 10\n")


def environment():
    """The library versions and BLAS pins the emitted bytes depend on."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_pins": {v: os.environ.get(v)
                          for v in floquet_forge._BLAS_PINS}}


def emit(root):
    """Run every config under ``root``; return {"run/file": sha256}."""
    src = str(Path(floquet_forge.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    digests = {}
    for run, (scenario, cfg_text) in RUNS.items():
        cfg = Path(root) / f"{run}.cfg"
        cfg.write_text(cfg_text)
        out = Path(root) / run
        proc = subprocess.run(
            [sys.executable, "-m", "floquet_forge.cli", scenario,
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{run} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        for path in sorted(out.iterdir()):
            digests[f"{run}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def main():
    with tempfile.TemporaryDirectory() as root:
        files = emit(root)
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps({"environment": environment(),
                                  "files": files}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {LEDGER}")


if __name__ == "__main__":
    main()
