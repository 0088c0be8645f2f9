"""Every emitted file, manifests included, against the committed ledger.

A change that moves output bytes on purpose regenerates the ledger with
``PYTHONPATH=src python tests/ledger.py`` and says why, file by file.
"""
import json

from ledger import LEDGER, emit, environment

REGENERATE = "regenerate it with: PYTHONPATH=src python tests/ledger.py"


def test_emitted_files_match_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    env = environment()
    assert env == ledger["environment"], (
        f"ledger made under {ledger['environment']}, running under {env}; "
        f"{REGENERATE}")
    got = emit(tmp_path)
    want = ledger["files"]
    moved = sorted(k for k in want if k in got and got[k] != want[k])
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    assert not (moved or missing or extra), (
        f"moved: {moved}; missing: {missing}; new: {extra}. If the change "
        f"is meant, {REGENERATE}")
