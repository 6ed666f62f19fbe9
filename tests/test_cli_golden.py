"""The command line's output bytes, pinned by ``tests/golden/cli_outputs.sha256.json``.

The manifest is written by ``scripts/regen_golden.py``; a change that is
not meant to alter any output must pass these tests with the manifest as it
is.  The runs are made in this process, then again as ``python -m accessopt``
processes, whose exit skips the collection of cycles: a byte left for a
finalizer to write would be lost there.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import accessopt

SRC = Path(accessopt.__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_golden.py"


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_match_manifest(regen, actual):
    expected = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"output bytes changed: {changed}"


@pytest.mark.filterwarnings("ignore::accessopt.routing.SnapDistanceWarning")
def test_cli_outputs_match_manifest(tmp_path):
    regen = _regen_module()
    _assert_match_manifest(regen, regen.cli_output_hashes(tmp_path))


def test_process_outputs_match_manifest(tmp_path):
    regen = _regen_module()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, code in regen.CLI_RUNS:
        argv = [arg.replace("{root}", str(tmp_path)) for arg in argv]
        done = subprocess.run([sys.executable, "-m", "accessopt", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == code, f"{argv[0]} exited {done.returncode}: {done.stderr}"
    _assert_match_manifest(regen, regen.file_hashes(tmp_path))
