"""The command line's output bytes, pinned by ``tests/golden/cli_outputs.sha256.json``.

The manifest is written by ``scripts/regen_golden.py``; a change that is
not meant to alter any output must pass this test with the manifest as it is.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_golden.py"


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore::accessopt.routing.SnapDistanceWarning")
def test_cli_outputs_match_manifest(tmp_path):
    regen = _regen_module()
    expected = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))
    actual = regen.cli_output_hashes(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"output bytes changed: {changed}"
